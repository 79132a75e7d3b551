package manet

import "slices"

// Loop describes a forwarding cycle found in a router snapshot: the
// NextHop walk from Src toward Dst revisited a node before reaching
// Dst. Cycle lists the nodes in walk order, ending at the first
// repeated node (so Cycle[len-1] == an earlier element).
type Loop struct {
	Src, Dst string
	Cycle    []string
}

// FindLoop walks r's next hops for every ordered pair of distinct
// nodes, in the order given, and returns the first forwarding loop it
// finds. Unlike PathFrom — which conflates "no route" and "loop" into
// a single false — this distinguishes a dead end (fine: the route is
// simply absent) from a cycle (an invariant violation: packets would
// orbit forever).
func FindLoop(r NextHop, nodes []int32) (Loop, bool) {
	var buf []int32
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			var ok bool
			buf, ok = walk(r, buf[:0], src, dst)
			if last := len(buf) - 1; ok || !slices.Contains(buf[:last], buf[last]) {
				continue // arrived, or a dead end
			}
			ids := r.IDs()
			loop := Loop{Src: ids.Name(src), Dst: ids.Name(dst), Cycle: make([]string, len(buf))}
			for k, i := range buf {
				loop.Cycle[k] = ids.Name(i)
			}
			return loop, true
		}
	}
	return Loop{}, false
}
