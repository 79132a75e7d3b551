package manet

import (
	"slices"

	"minkowski/internal/platform"
	"minkowski/internal/radio"
)

// FabricNet adapts the radio fabric + platform fleet to the Network
// interface: the MANET runs over installed links between operational
// nodes. Adjacency is DIRECTED: a partial partition (chaos) can
// silence one direction of a physical link while the reverse keeps
// delivering, so NeighborsAt(a) lists the nodes a can currently
// *transmit to*. The fabric must be keyed by the fleet's ID table.
type FabricNet struct {
	Fabric *radio.Fabric
	Fleet  *platform.Fleet
	// deaf lists the blocked (from, to) directions by node index: to no
	// longer hears from, even though the radio link is installed. A
	// chaos script silences a handful at most.
	deaf [][2]int32
}

// SetDeaf blocks (or restores) one direction of the mesh: while
// blocked, messages from → to are lost. The reverse direction is
// unaffected (set both to model a full symmetric partition of the
// pair). A name the fleet has never held silences nothing.
func (fn *FabricNet) SetDeaf(from, to string, blocked bool) {
	f, okf := fn.Fleet.IDs.Lookup(from)
	t, okt := fn.Fleet.IDs.Lookup(to)
	if !okf || !okt {
		return
	}
	e := [2]int32{f, t}
	at := slices.Index(fn.deaf, e)
	if blocked && at < 0 {
		fn.deaf = append(fn.deaf, e)
	} else if !blocked && at >= 0 {
		fn.deaf = slices.Delete(fn.deaf, at, at+1)
	}
}

func (fn *FabricNet) deafAt(from, to int32) bool {
	return slices.Contains(fn.deaf, [2]int32{from, to})
}

// AppendNodes implements Network with the operational nodes, in
// Fleet.Nodes order.
func (fn *FabricNet) AppendNodes(dst []int32) []int32 {
	for _, n := range fn.Fleet.Nodes() {
		if n.Operational() {
			dst = append(dst, n.Index)
		}
	}
	return dst
}

// IDs implements Network with the fleet's table.
func (fn *FabricNet) IDs() *platform.IDs { return fn.Fleet.IDs }

// NeighborsAt implements Network from installed links, minus the
// directions a partial partition has silenced. With none silenced out
// of i it is the fabric's own slice.
func (fn *FabricNet) NeighborsAt(i int32) []int32 {
	nbs := fn.Fabric.NeighborsAt(i)
	if !slices.ContainsFunc(fn.deaf, func(e [2]int32) bool { return e[0] == i }) {
		return nbs
	}
	return slices.DeleteFunc(slices.Clone(nbs), func(n int32) bool { return fn.deafAt(i, n) })
}

// AdjacentAt implements Network: an installed link joins a and b, and
// the a → b direction is not silenced.
func (fn *FabricNet) AdjacentAt(a, b int32) bool {
	return fn.Fabric.AdjacentAt(a, b) && !fn.deafAt(a, b)
}

// LatencyAt implements Network: propagation plus a processing floor.
func (fn *FabricNet) LatencyAt(a, b int32) float64 {
	if l, ok := fn.Fabric.LinkAt(a, b); ok {
		return radio.PropagationDelay(l) + 0.002
	}
	return 0.003
}
