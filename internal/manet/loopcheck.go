package manet

// Loop describes a forwarding cycle found in a router snapshot: the
// NextHop walk from Src toward Dst revisited a node before reaching
// Dst. Cycle lists the nodes in walk order, ending at the first
// repeated node (so Cycle[len-1] == an earlier element).
type Loop struct {
	Src, Dst string
	Cycle    []string
}

// FindLoop walks NextHop for every ordered (src, dst) pair over nodes
// and returns the first forwarding loop it finds. Unlike PathFrom —
// which conflates "no route" and "loop" into a single false — this
// distinguishes a dead-end (fine: the route is simply absent) from a
// cycle (an invariant violation: packets would orbit forever). The
// scan order is deterministic given a sorted node list.
func FindLoop(r NextHop, nodes []string) (Loop, bool) {
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			if loop, ok := walkForLoop(r, src, dst); ok {
				return loop, true
			}
		}
	}
	return Loop{}, false
}

// walkForLoop follows NextHop from src toward dst, reporting a cycle
// if the walk revisits a node. A missing next hop ends the walk
// without a loop.
func walkForLoop(r NextHop, src, dst string) (Loop, bool) {
	seen := map[string]bool{src: true}
	path := []string{src}
	cur := src
	// Walk bound: any simple path is shorter than the node count the
	// router can know about; 4096 comfortably exceeds every scenario.
	for i := 0; i < 4096; i++ {
		nh, ok := r.NextHop(cur, dst)
		if !ok {
			return Loop{}, false // dead end, not a loop
		}
		path = append(path, nh)
		if nh == dst {
			return Loop{}, false
		}
		if seen[nh] {
			return Loop{Src: src, Dst: dst, Cycle: path}, true
		}
		seen[nh] = true
		cur = nh
	}
	return Loop{Src: src, Dst: dst, Cycle: path}, true
}
