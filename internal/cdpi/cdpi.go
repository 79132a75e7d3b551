// Package cdpi implements the control-to-data-plane interface of
// §4.2: the protocol layer between the TS-SDN frontend in the
// datacenter and the SDN agents on balloons and ground stations.
//
// Loon extended the OpenFlow-style CDPI with the mechanisms a moving
// NTN needs:
//
//   - multiple control channels per node (2 satcom + 1 in-band) with
//     lowest-latency channel selection,
//   - a time-to-enact (TTE) on every command so nodes switch
//     topology consistently on GPS-synchronized clocks,
//   - queue-blind TTE estimation, message drops at the satcom
//     gateway, controller-driven timeouts and channel-cycling
//     retries,
//   - the in-band side channel: a balloon connecting in-band is
//     itself evidence that its link-establish command succeeded.
package cdpi

import (
	"fmt"

	"minkowski/internal/manet"
	"minkowski/internal/sim"
)

// Kind classifies commands; timeouts and channel policies are per
// kind.
type Kind int

const (
	// KindLinkEstablish commands a node to form a link (needs TTE
	// synchronization with the peer's matching command).
	KindLinkEstablish Kind = iota
	// KindLinkWithdraw tears a link down gracefully.
	KindLinkWithdraw
	// KindRouteUpdate programs forwarding state (bulky: in-band
	// only; the satcom gateway drops it).
	KindRouteUpdate
	// KindTunnelSetup provisions an IPsec tunnel.
	KindTunnelSetup
	// KindDrain requests administrative drain state.
	KindDrain
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindLinkEstablish:
		return "link-establish"
	case KindLinkWithdraw:
		return "link-withdraw"
	case KindRouteUpdate:
		return "route-update"
	case KindTunnelSetup:
		return "tunnel-setup"
	case KindDrain:
		return "drain"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// RequiresInBand reports whether the command is too bulky for satcom.
func (k Kind) RequiresInBand() bool {
	return k == KindRouteUpdate || k == KindTunnelSetup
}

// RequiresSync reports whether the command must execute at its TTE
// (arriving after the TTE makes it useless — the peer has already
// started searching).
func (k Kind) RequiresSync() bool { return k == KindLinkEstablish }

// WireBytes approximates the bit-packed message size per kind.
func (k Kind) WireBytes() int {
	switch k {
	case KindLinkEstablish:
		return 180 // pointing geometry, channel, peer identity, signature
	case KindLinkWithdraw:
		return 64
	case KindRouteUpdate:
		return 900
	case KindTunnelSetup:
		return 400
	default:
		return 96
	}
}

// Command is one CDPI instruction to one node.
type Command struct {
	// ID is assigned by the frontend.
	ID uint64
	// Node is the destination.
	Node string
	// Kind selects behaviour.
	Kind Kind
	// TTE is the absolute enactment time. Nodes hold the command
	// until TTE (GPS-synchronized clocks).
	TTE float64
	// Payload is opaque to the CDPI (the intent layer puts link/route
	// descriptors here).
	Payload interface{}
	// Attempt counts retries.
	Attempt int
	// Epoch is the issuing control process's fencing epoch. Agents
	// remember the highest epoch they have seen and reject commands
	// carrying a lower one — the fence that stops a deposed primary
	// from double-enacting after a standby promotion. Zero means
	// fencing is not in use (single-controller legacy mode); zero-epoch
	// commands are never fenced.
	Epoch uint64
}

// Channel identifies how a command travelled.
type Channel int

const (
	// ChannelSatcom is Tier 0.
	ChannelSatcom Channel = iota
	// ChannelInBand is Tier 1/2 over the mesh.
	ChannelInBand
)

// String implements fmt.Stringer.
func (c Channel) String() string {
	if c == ChannelInBand {
		return "in-band"
	}
	return "satcom"
}

// InBand models the in-band control path: frontend (EC) ↔ ground
// station (wired) ↔ mesh (MANET-routed) ↔ node. Every question is one
// walk of the router's next hops by node index into buffers InBand
// owns; only PathTo and PathUp turn the result into node IDs.
type InBand struct {
	Eng *sim.Engine
	// Router provides mesh next hops.
	Router *manet.Fast
	// Net provides adjacency and per-hop latency.
	Net manet.Network
	// Gateways are the ground-station node IDs with wired EC access.
	Gateways []string
	// WiredOneWayS is EC↔GS latency (tens of ms over leased circuits
	// or Internet).
	WiredOneWayS float64
	// SymmetricCompat restores the pre-directional model where the
	// node → EC direction reuses the EC → node path. Under partial
	// partitions that model invents uplinks that don't exist (ghost
	// heartbeats); it is kept only so tests can demonstrate the
	// failure the chaos search found.
	SymmetricCompat bool
	// Bytes counts in-band control traffic.
	Bytes int64
	// partitioned nodes, by index, are unreachable over the mesh
	// (chaos: a MANET partition or a gateway site loss) even though the
	// underlying radio links may still exist.
	partitioned []bool
	// gw is Gateways by index, resolved on first use.
	gw []int32
	// best holds the path the last route call chose, cand the one it
	// was trying; they swap and never share storage.
	best, cand []int32
}

// SetPartitioned isolates a node from (or rejoins it to) the in-band
// mesh. A partitioned gateway stops serving as an EC entry point; a
// partitioned balloon is unreachable and cannot relay. A name the mesh
// has never seen isolates nothing.
func (ib *InBand) SetPartitioned(node string, isolated bool) {
	i, ok := ib.Net.IDs().Lookup(node)
	if !ok {
		return
	}
	if int(i) >= len(ib.partitioned) {
		if !isolated {
			return
		}
		ib.partitioned = append(ib.partitioned, make([]bool, int(i)+1-len(ib.partitioned))...)
	}
	ib.partitioned[i] = isolated
}

// Partitioned reports whether a node is currently isolated.
func (ib *InBand) Partitioned(node string) bool {
	i, ok := ib.Net.IDs().Lookup(node)
	return ok && ib.isolated(i)
}

func (ib *InBand) isolated(i int32) bool {
	return int(i) < len(ib.partitioned) && ib.partitioned[i]
}

// pathUsable rejects paths touching any partitioned node.
func (ib *InBand) pathUsable(p []int32) bool {
	for _, n := range p {
		if ib.isolated(n) {
			return false
		}
	}
	return true
}

// route finds the shortest usable mesh path between the EC and a node
// over the gateways, in order, the first of equally short ones winning:
// gateway → node, or node → gateway when up. With directed mesh
// adjacency (partial partitions) the two are NOT each other's reverse:
// each direction routes over its own live edges. On success the path
// (in travel order) is in ib.best until the next call.
func (ib *InBand) route(node int32, up bool) bool {
	if len(ib.gw) != len(ib.Gateways) {
		ib.gw = ib.gw[:0]
		for _, g := range ib.Gateways {
			ib.gw = append(ib.gw, ib.Net.IDs().Intern(g))
		}
	}
	ib.best = ib.best[:0]
	if ib.isolated(node) {
		return false
	}
	for _, gw := range ib.gw {
		if ib.isolated(gw) {
			continue
		}
		if gw == node {
			ib.best = append(ib.best[:0], gw)
			return true
		}
		src, dst := gw, node
		if up {
			src, dst = node, gw
		}
		var ok bool
		ib.cand, ok = ib.Router.AppendPath(ib.cand[:0], src, dst)
		if ok && ib.pathUsable(ib.cand) && (len(ib.best) == 0 || len(ib.cand) < len(ib.best)) {
			ib.best, ib.cand = ib.cand, ib.best
		}
	}
	return len(ib.best) > 0
}

// routeTo is route for a node ID; a name the mesh has never seen has
// no route.
func (ib *InBand) routeTo(node string, up bool) bool {
	i, ok := ib.Net.IDs().Lookup(node)
	return ok && ib.route(i, up)
}

// path is route for callers that want the node IDs along it.
func (ib *InBand) path(node string, up bool) ([]string, bool) {
	if !ib.routeTo(node, up) {
		return nil, false
	}
	out := make([]string, len(ib.best))
	for k, i := range ib.best {
		out[k] = ib.Net.IDs().Name(i)
	}
	return out, true
}

// PathTo returns the full node path (GS first) from the EC to a node
// over the best available gateway, if any.
func (ib *InBand) PathTo(node string) ([]string, bool) { return ib.path(node, false) }

// Connected reports whether the EC can currently reach the node
// in-band.
func (ib *InBand) Connected(node string) bool { return ib.routeTo(node, false) }

// PathUp returns the full node path (node first, GS last) from a node
// to the EC over the best reachable gateway.
func (ib *InBand) PathUp(node string) ([]string, bool) { return ib.path(node, true) }

// RoutedUp reports whether the mesh currently carries the node → EC
// direction, whatever SymmetricCompat pretends.
func (ib *InBand) RoutedUp(node string) bool { return ib.routeTo(node, true) }

// ConnectedUp reports whether the node can currently reach the EC
// in-band (the direction heartbeats and responses travel).
func (ib *InBand) ConnectedUp(node string) bool {
	return ib.routeTo(node, !ib.SymmetricCompat)
}

// Transit routes size bytes from the EC to the node (up: back) now and
// returns the one-way latency: the wired leg plus each hop of the path,
// or the wired leg alone if none is routed. Routed bytes count in Bytes.
func (ib *InBand) Transit(node string, up bool, size int) (lat float64, routed bool) {
	lat = ib.WiredOneWayS
	routed = ib.routeTo(node, up)
	if routed {
		ib.Bytes += int64(size)
		for k := 1; k < len(ib.best); k++ {
			lat += ib.Net.LatencyAt(ib.best[k-1], ib.best[k])
		}
	}
	return lat, routed
}
