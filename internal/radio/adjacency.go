package radio

import (
	"slices"
	"strings"
)

// upLink is one entry of a node's adjacency: an installed link and
// the node at its far end.
type upLink struct {
	peer string
	link *Link
}

// nodeAdj is one node's share of the fabric's adjacency index.
type nodeAdj struct {
	// up holds the node's links in StateUp, sorted by (peer node ID,
	// LinkID).
	up []upLink
	// peers holds the distinct peer node IDs of up, sorted. Neighbors
	// hands this slice out, so a change replaces it and never edits it:
	// a caller walking an earlier result keeps a consistent view.
	peers []string
}

// indexUp enters a link that just reached StateUp under both of its
// endpoint nodes.
func (f *Fabric) indexUp(l *Link) {
	a, b := l.Nodes()
	f.insertAdj(a, upLink{peer: b, link: l})
	f.insertAdj(b, upLink{peer: a, link: l})
	f.upCount++
}

// indexDown removes a link that is leaving StateUp.
func (f *Fabric) indexDown(l *Link) {
	a, b := l.Nodes()
	f.removeAdj(a, l)
	f.removeAdj(b, l)
	f.upCount--
}

func (f *Fabric) insertAdj(node string, e upLink) {
	na := f.adj[node]
	if na == nil {
		na = &nodeAdj{}
		f.adj[node] = na
	}
	at, _ := slices.BinarySearchFunc(na.up, e, func(u, e upLink) int {
		if c := strings.Compare(u.peer, e.peer); c != 0 {
			return c
		}
		return u.link.ID.compare(e.link.ID)
	})
	na.up = slices.Insert(na.up, at, e)
	na.rebuildPeers()
}

func (f *Fabric) removeAdj(node string, l *Link) {
	na := f.adj[node]
	at := slices.IndexFunc(na.up, func(u upLink) bool { return u.link == l })
	na.up = slices.Delete(na.up, at, at+1)
	if len(na.up) == 0 {
		delete(f.adj, node)
		return
	}
	na.rebuildPeers()
}

func (na *nodeAdj) rebuildPeers() {
	peers := make([]string, 0, len(na.up))
	for i, u := range na.up {
		if i == 0 || u.peer != na.up[i-1].peer {
			peers = append(peers, u.peer)
		}
	}
	na.peers = peers
}

// UpCount returns how many links are in StateUp.
func (f *Fabric) UpCount() int { return f.upCount }

// NodeUp reports whether a node has at least one installed link.
func (f *Fabric) NodeUp(nodeID string) bool { return f.adj[nodeID] != nil }

// Neighbors returns the node IDs reachable over installed links from
// a node, sorted. The slice is shared with the fabric: read it, do
// not modify it. A later link change replaces it rather than editing
// it, so a slice already handed out keeps the mesh as it was then.
//
//minkowski:hotpath
func (f *Fabric) Neighbors(nodeID string) []string {
	if na := f.adj[nodeID]; na != nil {
		return na.peers
	}
	return nil
}

// Adjacent reports whether an installed link joins the two nodes.
//
//minkowski:hotpath
func (f *Fabric) Adjacent(nodeA, nodeB string) bool {
	_, ok := f.LinkBetween(nodeA, nodeB)
	return ok
}

// LinkBetween returns the installed link between two nodes, if any.
// When several transceiver pairs join the same two nodes, the link
// with the lowest LinkID wins.
//
//minkowski:hotpath
func (f *Fabric) LinkBetween(nodeA, nodeB string) (*Link, bool) {
	if na := f.adj[nodeA]; na != nil {
		for _, u := range na.up {
			if u.peer == nodeB {
				return u.link, true
			}
		}
	}
	return nil, false
}
