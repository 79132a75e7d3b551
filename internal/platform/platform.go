package platform

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"minkowski/internal/antenna"
	"minkowski/internal/flight"
	"minkowski/internal/geo"
	"minkowski/internal/rf"
)

// Kind distinguishes node types. The paper's future work calls for
// differentiating airborne/ground/maritime nodes; Loon had two.
type Kind int

const (
	// KindBalloon is a stratospheric HAPS node.
	KindBalloon Kind = iota
	// KindGround is a ground-station gateway node.
	KindGround
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindGround {
		return "ground"
	}
	return "balloon"
}

// Transceiver is one pointable radio on a node: an antenna mount plus
// an RF chain. Transceiver IDs are stable, globally unique strings
// ("hbal-001/xcvr-2", "gs-nairobi/xcvr-0").
type Transceiver struct {
	ID    string
	Node  *Node
	Mount *antenna.Mount
	Radio rf.Radio
	// Busy marks the transceiver as tasked with a link (maintained by
	// the radio fabric).
	Busy bool
}

// String implements fmt.Stringer.
func (x *Transceiver) String() string { return x.ID }

// IDs is the node-ID table: it gives every node name a dense int32
// index in order of first registration and never moves or reuses one,
// so the Tier-1 layers (radio adjacency, MANET next-hop tables, in-band
// reachability) can key flat slices by it and keep them across fleet
// churn. A Fleet creates one (ground stations first, balloons as they
// join); hand-built nodes share one by passing it to the same fabric.
// Its size is bounded by the ground stations plus every balloon ever
// launched in the run.
type IDs struct {
	names []string
	index map[string]int32
}

// NewIDs returns an empty table.
func NewIDs() *IDs { return &IDs{index: make(map[string]int32)} }

// Intern returns the index of a node name, assigning the next one on
// first sight.
func (t *IDs) Intern(name string) int32 {
	i, ok := t.index[name]
	if !ok {
		i = int32(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = i
	}
	return i
}

// Register interns the node's name and records the index on the node.
func (t *IDs) Register(n *Node) { n.Index = t.Intern(n.ID) }

// Lookup returns the index of a name the table has seen.
//
//minkowski:hotpath
func (t *IDs) Lookup(name string) (int32, bool) {
	i, ok := t.index[name]
	return i, ok
}

// Name returns the node name behind an index.
//
//minkowski:hotpath
func (t *IDs) Name(i int32) string { return t.names[i] }

// Len returns how many indices have been assigned; every index is
// below it.
func (t *IDs) Len() int { return len(t.names) }

// Node is a network platform: a balloon or a ground station.
type Node struct {
	ID   string
	Kind Kind
	// Index is the node's place in the IDs table it is registered in
	// (by its Fleet, or by the fabric it first links on).
	Index int32
	// Balloon backs a KindBalloon node's position and motion.
	Balloon *flight.Balloon
	// FixedPos backs a KindGround node's position.
	FixedPos geo.LLA
	// Xcvrs are the node's transceivers (3 for balloons, 2 for
	// ground stations).
	Xcvrs []*Transceiver
	// Power is the balloon energy system; nil for ground stations
	// (wired power).
	Power *Power
}

// Position returns the node's current position.
func (n *Node) Position() geo.LLA {
	if n.Kind == KindBalloon {
		return n.Balloon.Pos
	}
	return n.FixedPos
}

// Operational reports whether the node's communications payload is
// powered. Ground stations are always operational.
func (n *Node) Operational() bool {
	if n.Power == nil {
		return true
	}
	return n.Power.CommsOn
}

// String implements fmt.Stringer.
func (n *Node) String() string { return n.ID }

// NewBalloonNode wraps a flight vehicle in a network node with the
// standard three-corner transceiver installation.
func NewBalloonNode(b *flight.Balloon) *Node { return NewBalloonNodeN(b, 3) }

// NewBalloonNodeN builds a balloon node with n transceivers (the
// Appendix A transceiver-count study).
func NewBalloonNodeN(b *flight.Balloon, nXcvrs int) *Node {
	n := &Node{ID: b.ID, Kind: KindBalloon, Balloon: b, Power: NewPower()}
	for i, m := range antenna.BalloonMountsN(nXcvrs) {
		n.Xcvrs = append(n.Xcvrs, &Transceiver{
			ID:    fmt.Sprintf("%s/xcvr-%d", b.ID, i),
			Node:  n,
			Mount: m,
			Radio: rf.EBandRadio(),
		})
	}
	return n
}

// NewGroundStation creates a gateway node at a site with the standard
// two-transceiver radome installation and the site's terrain
// occlusions.
func NewGroundStation(id string, site geo.LLA, terrain []antenna.Occlusion) *Node {
	n := &Node{ID: id, Kind: KindGround, FixedPos: site}
	for i, m := range antenna.GroundMounts(terrain) {
		n.Xcvrs = append(n.Xcvrs, &Transceiver{
			ID:    fmt.Sprintf("%s/xcvr-%d", id, i),
			Node:  n,
			Mount: m,
			Radio: rf.EBandRadio(),
		})
	}
	return n
}

// Fleet is the set of all platforms: the balloon fleet (backed by the
// FMS) plus ground stations. It keeps node wrappers in sync with the
// FMS's recycling (a recycled balloon is a node leaving the network
// and a new one joining).
type Fleet struct {
	FMS *flight.FMS
	// IDs indexes every node the fleet has ever held.
	IDs      *IDs
	Balloons map[string]*Node // by node ID; the membership of record
	Grounds  []*Node
	// nodes is what Nodes hands out, rebuilt from Grounds and Balloons
	// whenever membership changes.
	nodes []*Node

	// Joined and Left record fleet membership changes since the last
	// call to DrainEvents (consumed by the SDN's entity layer).
	joined, left []*Node

	byVehicle map[*flight.Balloon]*Node
}

// NewFleet wraps an FMS fleet and ground stations.
func NewFleet(fms *flight.FMS, grounds []*Node) *Fleet {
	f := &Fleet{
		FMS:       fms,
		IDs:       NewIDs(),
		Balloons:  make(map[string]*Node),
		Grounds:   grounds,
		byVehicle: make(map[*flight.Balloon]*Node),
	}
	for _, g := range grounds {
		f.IDs.Register(g)
	}
	for _, b := range fms.Fleet {
		f.join(b)
	}
	f.rebuildNodes()
	return f
}

// join wraps a vehicle new to the fleet in a node.
func (f *Fleet) join(b *flight.Balloon) {
	n := NewBalloonNode(b)
	f.IDs.Register(n)
	f.Balloons[n.ID] = n
	f.byVehicle[b] = n
	f.joined = append(f.joined, n)
}

// rebuildNodes replaces the Nodes view: ground stations, then balloons
// in ID order.
func (f *Fleet) rebuildNodes() {
	nodes := make([]*Node, 0, len(f.Grounds)+len(f.Balloons))
	nodes = append(nodes, f.Grounds...)
	for _, n := range f.Balloons {
		nodes = append(nodes, n)
	}
	slices.SortFunc(nodes[len(f.Grounds):], func(a, b *Node) int { return strings.Compare(a.ID, b.ID) })
	f.nodes = nodes
}

// Step advances flight and power by dt at sim time t, then
// reconciles fleet membership with the FMS.
func (f *Fleet) Step(t, dt float64) {
	f.FMS.Step(dt)
	// Reconcile: any vehicle in the FMS fleet without a node is a
	// join; any node whose vehicle is gone is a leave.
	current := make(map[*flight.Balloon]bool, len(f.FMS.Fleet))
	joinedStart, leftStart := len(f.joined), len(f.left)
	for _, b := range f.FMS.Fleet {
		current[b] = true
		if _, ok := f.byVehicle[b]; !ok {
			f.join(b)
		}
	}
	for veh, node := range f.byVehicle {
		if !current[veh] {
			delete(f.byVehicle, veh)
			delete(f.Balloons, node.ID)
			f.left = append(f.left, node)
		}
	}
	// The sweep above ranges a pointer-keyed map; sort this step's
	// departures so leave events drain in a run-independent order.
	sort.Slice(f.left[leftStart:], func(i, j int) bool {
		return f.left[leftStart+i].ID < f.left[leftStart+j].ID
	})
	if len(f.joined) > joinedStart || len(f.left) > leftStart {
		f.rebuildNodes()
	}
	// Power.
	for _, n := range f.Balloons {
		n.Power.Step(t, dt)
	}
}

// DrainEvents returns and clears the joined/left node lists.
func (f *Fleet) DrainEvents() (joined, left []*Node) {
	joined, left = f.joined, f.left
	f.joined, f.left = nil, nil
	return joined, left
}

// Nodes returns all nodes, ground stations first, then balloons in
// deterministic (ID-sorted) order. The slice is shared with the fleet:
// read it, do not modify it. A membership change replaces it rather
// than editing it, so a caller ranging over an earlier result keeps
// the fleet as it was then.
func (f *Fleet) Nodes() []*Node { return f.nodes }

// OperationalNodes returns the nodes whose payloads are powered.
func (f *Fleet) OperationalNodes() []*Node {
	var out []*Node
	for _, n := range f.Nodes() {
		if n.Operational() {
			out = append(out, n)
		}
	}
	return out
}

// Transceivers returns every transceiver on operational nodes, in
// deterministic order.
func (f *Fleet) Transceivers() []*Transceiver {
	var out []*Transceiver
	for _, n := range f.OperationalNodes() {
		out = append(out, n.Xcvrs...)
	}
	return out
}
