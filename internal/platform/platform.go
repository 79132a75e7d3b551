package platform

import (
	"fmt"
	"slices"
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
func (t *IDs) Lookup(name string) (int32, bool) {
	i, ok := t.index[name]
	return i, ok
}

// Name returns the node name behind an index.
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
	IDs     *IDs
	Grounds []*Node
	// members is the membership of record by node index: nil where the
	// index names a node that left.
	members []*Node
	// nodes is what Nodes hands out, rebuilt from Grounds and members
	// whenever membership changes.
	nodes []*Node

	// Joined and Left record fleet membership changes since the last
	// call to DrainEvents (consumed by the SDN's entity layer).
	joined, left []*Node

	// inFMS is Step's scratch, by node index: the vehicles the FMS
	// flies this step.
	inFMS []bool
}

// Fit returns s extended with zero values so that s[i] exists: the
// growth step of every table keyed by node index.
func Fit[T any](s []T, i int32) []T {
	if n := int(i) + 1; n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// NewFleet wraps an FMS fleet and ground stations.
func NewFleet(fms *flight.FMS, grounds []*Node) *Fleet {
	f := &Fleet{FMS: fms, IDs: NewIDs(), Grounds: grounds}
	for _, g := range grounds {
		f.IDs.Register(g)
		f.members = Fit(f.members, g.Index)
		f.members[g.Index] = g
	}
	for _, b := range fms.Fleet {
		f.join(b)
	}
	f.rebuildNodes()
	return f
}

// join wraps a vehicle new to the fleet in a node.
func (f *Fleet) join(b *flight.Balloon) *Node {
	n := NewBalloonNode(b)
	f.IDs.Register(n)
	f.members = Fit(f.members, n.Index)
	f.members[n.Index] = n
	f.joined = append(f.joined, n)
	return n
}

// Node returns the member at index i, or nil when none holds it.
func (f *Fleet) Node(i int32) *Node {
	if int(i) >= len(f.members) {
		return nil
	}
	return f.members[i]
}

// Named returns the member called name, or nil.
func (f *Fleet) Named(name string) *Node {
	i, ok := f.IDs.Lookup(name)
	if !ok {
		return nil
	}
	return f.Node(i)
}

// rebuildNodes replaces the Nodes view: ground stations, then balloons
// in ID order.
func (f *Fleet) rebuildNodes() {
	nodes := make([]*Node, 0, len(f.members))
	nodes = append(nodes, f.Grounds...)
	for _, n := range f.members {
		if n != nil && n.Kind == KindBalloon {
			nodes = append(nodes, n)
		}
	}
	slices.SortFunc(nodes[len(f.Grounds):], func(a, b *Node) int { return strings.Compare(a.ID, b.ID) })
	f.nodes = nodes
}

// Step advances flight and power by dt at sim time t, then
// reconciles fleet membership with the FMS.
func (f *Fleet) Step(t, dt float64) {
	f.FMS.Step(dt)
	// Reconcile: any vehicle in the FMS fleet without a node is a
	// join; any balloon whose vehicle is gone is a leave, in Nodes
	// order.
	f.inFMS = Fit(f.inFMS, int32(f.IDs.Len()-1))
	clear(f.inFMS)
	joinedStart, leftStart := len(f.joined), len(f.left)
	for _, b := range f.FMS.Fleet {
		n := f.Named(b.ID)
		if n == nil || n.Balloon != b {
			n = f.join(b)
		}
		f.inFMS = Fit(f.inFMS, n.Index)
		f.inFMS[n.Index] = true
	}
	for _, n := range f.Balloons() {
		if !f.inFMS[n.Index] {
			f.members[n.Index] = nil
			f.left = append(f.left, n)
		}
	}
	if len(f.joined) > joinedStart || len(f.left) > leftStart {
		f.rebuildNodes()
	}
	// Power.
	for _, n := range f.Balloons() {
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

// Balloons returns the balloons of Nodes, in ID order, on the same
// terms.
func (f *Fleet) Balloons() []*Node { return f.nodes[len(f.Grounds):] }

// AppendTransceivers appends every transceiver on an operational node
// to dst, in Nodes order, and returns the extended slice: a caller that
// passes the previous call's slice back, emptied, allocates nothing.
func (f *Fleet) AppendTransceivers(dst []*Transceiver) []*Transceiver {
	for _, n := range f.nodes {
		if n.Operational() {
			dst = append(dst, n.Xcvrs...)
		}
	}
	return dst
}

// Transceivers returns every transceiver on operational nodes, in
// deterministic order, in a slice of the caller's own.
func (f *Fleet) Transceivers() []*Transceiver { return f.AppendTransceivers(nil) }
