package manet

import "testing"

// TestReachableAny checks the delivery invariant's connectivity
// oracle: multi-hop reachability to ANY destination in the set,
// partition detection, and the trivial src-in-dst case.
func TestReachableAny(t *testing.T) {
	// a—b—c   d—e   (two components), z alone
	n := NewStaticNetwork()
	n.Connect("a", "b")
	n.Connect("b", "c")
	n.Connect("d", "e")
	n.AddNode("z")
	a, c, d, e, z := at(n, "a"), at(n, "c"), at(n, "d"), at(n, "e"), at(n, "z")

	gw := []int32{c, e}
	cases := []struct {
		src  int32
		dst  []int32
		want bool
	}{
		{a, gw, true},          // multi-hop a→b→c
		{d, gw, true},          // direct d→e
		{a, []int32{e}, false}, // across the partition
		{c, gw, true},          // src already a destination
		{a, nil, false},        // empty destination set
		{a, []int32{z}, false}, // destination not connected
	}
	var r Reach
	for _, tc := range cases {
		if got := r.Any(n, tc.src, tc.dst); got != tc.want {
			t.Errorf("Any(%d, %v) = %v, want %v", tc.src, tc.dst, got, tc.want)
		}
	}

	// Severing the bridge flips the verdict.
	n.Disconnect("b", "c")
	if r.Any(n, a, gw) {
		t.Error("a still reaches a gateway after the bridge was cut")
	}
}
