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
// delivering, so Neighbors(a) lists the nodes a can currently
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
// pair).
func (fn *FabricNet) SetDeaf(from, to string, blocked bool) {
	e := [2]int32{fn.Fleet.IDs.Intern(from), fn.Fleet.IDs.Intern(to)}
	at := slices.Index(fn.deaf, e)
	if blocked && at < 0 {
		fn.deaf = append(fn.deaf, e)
	} else if !blocked && at >= 0 {
		fn.deaf = slices.Delete(fn.deaf, at, at+1)
	}
}

// Deaf reports whether the from → to direction is currently blocked.
func (fn *FabricNet) Deaf(from, to string) bool {
	f, okf := fn.Fleet.IDs.Lookup(from)
	t, okt := fn.Fleet.IDs.Lookup(to)
	return okf && okt && fn.deafAt(f, t)
}

//minkowski:hotpath
func (fn *FabricNet) deafAt(from, to int32) bool {
	return slices.Contains(fn.deaf, [2]int32{from, to})
}

// Nodes implements Network with the operational node set.
func (fn *FabricNet) Nodes() []string {
	ops := fn.Fleet.OperationalNodes()
	out := make([]string, 0, len(ops))
	for _, n := range ops {
		out = append(out, n.ID)
	}
	return out // already deterministic order from Fleet.Nodes
}

// AppendNodes implements Network.
//
//minkowski:hotpath
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
//
//minkowski:hotpath
func (fn *FabricNet) NeighborsAt(i int32) []int32 {
	nbs := fn.Fabric.NeighborsAt(i)
	if !slices.ContainsFunc(fn.deaf, func(e [2]int32) bool { return e[0] == i }) {
		return nbs
	}
	return slices.DeleteFunc(slices.Clone(nbs), func(n int32) bool { return fn.deafAt(i, n) })
}

// Neighbors implements Network; the fabric's own slice while nothing
// is silenced.
func (fn *FabricNet) Neighbors(id string) []string {
	nbs := fn.Fabric.Neighbors(id)
	if len(fn.deaf) == 0 {
		return nbs
	}
	return slices.DeleteFunc(slices.Clone(nbs), func(n string) bool { return fn.Deaf(id, n) })
}

// AdjacentAt implements Network: an installed link joins a and b, and
// the a → b direction is not silenced.
//
//minkowski:hotpath
func (fn *FabricNet) AdjacentAt(a, b int32) bool {
	return fn.Fabric.AdjacentAt(a, b) && !fn.deafAt(a, b)
}

// Adjacent implements Network.
func (fn *FabricNet) Adjacent(a, b string) bool {
	return fn.Fabric.Adjacent(a, b) && !fn.Deaf(a, b)
}

// LatencyAt implements Network: propagation plus a processing floor.
//
//minkowski:hotpath
func (fn *FabricNet) LatencyAt(a, b int32) float64 { return hopLatency(fn.Fabric.LinkAt(a, b)) }

// Latency implements Network.
func (fn *FabricNet) Latency(a, b string) float64 {
	return hopLatency(fn.Fabric.LinkBetween(a, b))
}

func hopLatency(l *radio.Link, ok bool) float64 {
	if ok {
		return radio.PropagationDelay(l) + 0.002
	}
	return 0.003
}
