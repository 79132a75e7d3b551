package manet

import (
	"minkowski/internal/platform"
	"minkowski/internal/radio"
)

// FabricNet adapts the radio fabric + platform fleet to the Network
// interface: the MANET runs over installed links between operational
// nodes. Adjacency is DIRECTED: a partial partition (chaos) can
// silence one direction of a physical link while the reverse keeps
// delivering, so Neighbors(a) lists the nodes a can currently
// *transmit to*.
type FabricNet struct {
	Fabric *radio.Fabric
	Fleet  *platform.Fleet
	// deaf[from][to] marks the from → to direction blocked: to no
	// longer hears from, even though the radio link is installed.
	deaf map[string]map[string]bool
}

// SetDeaf blocks (or restores) one direction of the mesh: while
// blocked, messages from → to are lost. The reverse direction is
// unaffected (set both to model a full symmetric partition of the
// pair).
func (fn *FabricNet) SetDeaf(from, to string, blocked bool) {
	if blocked {
		if fn.deaf == nil {
			fn.deaf = map[string]map[string]bool{}
		}
		if fn.deaf[from] == nil {
			fn.deaf[from] = map[string]bool{}
		}
		fn.deaf[from][to] = true
		return
	}
	if m := fn.deaf[from]; m != nil {
		delete(m, to)
		if len(m) == 0 {
			delete(fn.deaf, from)
		}
	}
}

// Deaf reports whether the from → to direction is currently blocked.
func (fn *FabricNet) Deaf(from, to string) bool { return fn.deaf[from][to] }

// Nodes implements Network with the operational node set.
func (fn *FabricNet) Nodes() []string {
	ops := fn.Fleet.OperationalNodes()
	out := make([]string, 0, len(ops))
	for _, n := range ops {
		out = append(out, n.ID)
	}
	return out // already deterministic order from Fleet.Nodes
}

// Neighbors implements Network from installed links, minus the
// directions a partial partition has silenced. With none silenced it
// is the fabric's own slice.
func (fn *FabricNet) Neighbors(id string) []string {
	nbs := fn.Fabric.Neighbors(id)
	blocked := fn.deaf[id]
	if len(blocked) == 0 {
		return nbs
	}
	out := make([]string, 0, len(nbs))
	for _, n := range nbs {
		if !blocked[n] {
			out = append(out, n)
		}
	}
	return out
}

// Adjacent implements Network: an installed link joins a and b, and
// the a → b direction is not silenced.
func (fn *FabricNet) Adjacent(a, b string) bool {
	return fn.Fabric.Adjacent(a, b) && !fn.deaf[a][b]
}

// Latency implements Network: propagation plus a processing floor.
func (fn *FabricNet) Latency(a, b string) float64 {
	if l, ok := fn.Fabric.LinkBetween(a, b); ok {
		return radio.PropagationDelay(l) + 0.002
	}
	return 0.003
}
