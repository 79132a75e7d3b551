package manet

import "slices"

// Reach is the ground-truth connectivity oracle for the data-plane
// delivery invariant: a balloon from which no live gateway is
// reachable sits in a genuine partition, and undelivered traffic for
// it is excused. It keeps its search storage between calls.
type Reach struct {
	seen  []bool
	queue []int32
}

// Any reports whether any node in dst is reachable from src over the
// network's current adjacency (BFS over NeighborsAt, which on a
// FabricNet already leaves out dead nodes and deaf directions).
func (r *Reach) Any(n Network, src int32, dst []int32) bool {
	if slices.Contains(dst, src) {
		return true
	}
	r.seen = extend(r.seen[:0], n.IDs().Len(), false)
	r.seen[src] = true
	q := append(r.queue[:0], src)
	found := false
	for head := 0; head < len(q) && !found; head++ {
		for _, nb := range n.NeighborsAt(q[head]) {
			if r.seen[nb] {
				continue
			}
			if found = slices.Contains(dst, nb); found {
				break
			}
			r.seen[nb] = true
			q = append(q, nb)
		}
	}
	r.queue = q
	return found
}
