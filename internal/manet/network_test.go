package manet_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"minkowski/internal/manet"
)

// TestNetworkContract holds both Network implementations to one
// contract while their worlds change topology at random:
//
//   - AppendNodes lists each node once: in node-ID order on a
//     StaticNetwork, in Fleet.Nodes order (operational nodes only) on a
//     FabricNet;
//   - NeighborsAt(a) is in node-ID order and equals {b : AdjacentAt(a, b)};
//   - LatencyAt is positive on every adjacent pair;
//
// and ends on an asymmetric edge, made with ConnectOneWay on the static
// world and SetDeaf on the fabric.
func TestNetworkContract(t *testing.T) {
	for _, build := range []func(int64) *world{staticWorld, fabricWorld} {
		w := build(1)
		t.Run(w.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			w.onLinkChange = func() {}
			for step := 0; step < 300; step++ {
				op, _ := w.mutate(rng)
				w.eng.Run(w.eng.Now() + []float64{0, 1, 12}[rng.Intn(3)])
				checkNetwork(t, w, op)
			}
			var a, b string
			switch net := w.net.(type) {
			case *manet.StaticNetwork:
				a, b = "gs-0", "hbal-003"
				net.Disconnect(a, b)
				net.ConnectOneWay(a, b)
			case *manet.FabricNet:
				up := net.Fabric.UpLinks()
				if len(up) == 0 {
					t.Fatal("no link up to deafen")
				}
				a, b = up[0].Nodes()
				net.SetDeaf(b, a, false)
				net.SetDeaf(a, b, true)
			}
			checkNetwork(t, w, "asymmetric edge "+a+">"+b)
			ids := w.net.IDs()
			ia, _ := ids.Lookup(a)
			ib, _ := ids.Lookup(b)
			if w.net.AdjacentAt(ia, ib) == w.net.AdjacentAt(ib, ia) {
				t.Errorf("%s>%s: AdjacentAt both ways = %v, want one direction only", a, b, w.net.AdjacentAt(ia, ib))
			}
		})
	}
}

func checkNetwork(t *testing.T, w *world, when string) {
	t.Helper()
	net, ids := w.net, w.net.IDs()
	byName := func(a, b int32) int { return strings.Compare(ids.Name(a), ids.Name(b)) }
	var want []int32
	switch net := net.(type) {
	case *manet.StaticNetwork:
		for _, name := range w.names() {
			i, _ := ids.Lookup(name)
			want = append(want, i)
		}
		slices.SortFunc(want, byName)
	case *manet.FabricNet:
		for _, n := range net.Fleet.Nodes() {
			if n.Operational() {
				want = append(want, n.Index)
			}
		}
	}
	if got := net.AppendNodes(nil); !slices.Equal(got, want) {
		t.Fatalf("after %s: AppendNodes = %v, want %v", when, got, want)
	}
	for a := int32(0); int(a) < ids.Len(); a++ {
		nbs := net.NeighborsAt(a)
		var adj []int32
		for b := int32(0); int(b) < ids.Len(); b++ {
			if !net.AdjacentAt(a, b) {
				continue
			}
			adj = append(adj, b)
			if lat := net.LatencyAt(a, b); !(lat > 0) {
				t.Fatalf("after %s: LatencyAt(%s, %s) = %v", when, ids.Name(a), ids.Name(b), lat)
			}
		}
		slices.SortFunc(adj, byName)
		if !slices.IsSortedFunc(nbs, byName) || !slices.Equal(nbs, adj) {
			t.Fatalf("after %s: NeighborsAt(%s) = %v, adjacent to %v (want the same, in node-ID order)", when, ids.Name(a), nbs, adj)
		}
	}
}
