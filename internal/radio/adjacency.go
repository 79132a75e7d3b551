package radio

import (
	"slices"
	"strings"
)

// upLink is one entry of a node's adjacency: an installed link and
// the index of the node at its far end.
type upLink struct {
	peer int32
	link *Link
}

// nodeAdj is one node's share of the fabric's adjacency index.
type nodeAdj struct {
	// up holds the node's links in StateUp, sorted by (peer node ID,
	// LinkID) — by name, not by index, so a walk over it breaks ties the
	// same way whatever order the nodes were registered in.
	up []upLink
	// peers holds the distinct peers of up in that order, names the same
	// by name for the string-keyed callers. NeighborsAt and Neighbors
	// hand these out, so a change replaces them and never edits them: a
	// caller walking an earlier result keeps a consistent view.
	peers []int32
	names []string
}

// indexUp enters a link that just reached StateUp under both of its
// endpoint nodes.
func (f *Fabric) indexUp(l *Link) {
	a, b := l.XA.Node.Index, l.XB.Node.Index
	f.insertAdj(a, upLink{peer: b, link: l})
	f.insertAdj(b, upLink{peer: a, link: l})
	f.upCount++
}

// indexDown removes a link that is leaving StateUp.
func (f *Fabric) indexDown(l *Link) {
	f.removeAdj(l.XA.Node.Index, l)
	f.removeAdj(l.XB.Node.Index, l)
	f.upCount--
}

func (f *Fabric) insertAdj(node int32, e upLink) {
	if int(node) >= len(f.adj) {
		f.adj = append(f.adj, make([]nodeAdj, int(node)+1-len(f.adj))...)
	}
	na := &f.adj[node]
	at, _ := slices.BinarySearchFunc(na.up, e, func(u, e upLink) int {
		if c := strings.Compare(f.ids.Name(u.peer), f.ids.Name(e.peer)); c != 0 {
			return c
		}
		return u.link.ID.Compare(e.link.ID)
	})
	na.up = slices.Insert(na.up, at, e)
	f.rebuildPeers(na)
}

func (f *Fabric) removeAdj(node int32, l *Link) {
	na := &f.adj[node]
	at := slices.IndexFunc(na.up, func(u upLink) bool { return u.link == l })
	na.up = slices.Delete(na.up, at, at+1)
	f.rebuildPeers(na)
}

func (f *Fabric) rebuildPeers(na *nodeAdj) {
	if len(na.up) == 0 {
		*na = nodeAdj{}
		return
	}
	peers := make([]int32, 0, len(na.up))
	names := make([]string, 0, len(na.up))
	for i, u := range na.up {
		if i == 0 || u.peer != na.up[i-1].peer {
			peers = append(peers, u.peer)
			names = append(names, f.ids.Name(u.peer))
		}
	}
	na.peers, na.names = peers, names
}

// at returns a node's adjacency by index; the zero value for a node
// that never had a link.
func (f *Fabric) at(node int32) nodeAdj {
	if int(node) < len(f.adj) {
		return f.adj[node]
	}
	return nodeAdj{}
}

// named is at for a node name.
func (f *Fabric) named(nodeID string) nodeAdj {
	if i, ok := f.ids.Lookup(nodeID); ok {
		return f.at(i)
	}
	return nodeAdj{}
}

// UpCount returns how many links are in StateUp.
func (f *Fabric) UpCount() int { return f.upCount }

// NodeUp reports whether a node has at least one installed link.
func (f *Fabric) NodeUp(nodeID string) bool { return len(f.named(nodeID).up) > 0 }

// NeighborsAt returns the indices of the nodes reachable over installed
// links from a node, in node-ID order. The slice is shared with the
// fabric: read it, do not modify it. A later link change replaces it
// rather than editing it, so a slice already handed out keeps the mesh
// as it was then.
func (f *Fabric) NeighborsAt(node int32) []int32 { return f.at(node).peers }

// Neighbors is NeighborsAt by node ID, under the same contract.
func (f *Fabric) Neighbors(nodeID string) []string { return f.named(nodeID).names }

// AdjacentAt reports whether an installed link joins the two nodes.
func (f *Fabric) AdjacentAt(a, b int32) bool { return slices.Contains(f.at(a).peers, b) }

// Adjacent is AdjacentAt by node ID.
func (f *Fabric) Adjacent(nodeA, nodeB string) bool {
	_, ok := f.LinkBetween(nodeA, nodeB)
	return ok
}

// LinkAt returns the installed link between two nodes, if any. When
// several transceiver pairs join the same two nodes, the link with the
// lowest LinkID wins.
func (f *Fabric) LinkAt(a, b int32) (*Link, bool) {
	for _, u := range f.at(a).up {
		if u.peer == b {
			return u.link, true
		}
	}
	return nil, false
}

// LinkBetween is LinkAt by node ID.
func (f *Fabric) LinkBetween(nodeA, nodeB string) (*Link, bool) {
	a, oka := f.ids.Lookup(nodeA)
	b, okb := f.ids.Lookup(nodeB)
	if !oka || !okb {
		return nil, false
	}
	return f.LinkAt(a, b)
}
