package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"minkowski/internal/explain"
)

// TestPrintStateIsByteStable: Snapshot.Routes is a map, and this
// repository's contract is byte-identical output — every rendering of
// one snapshot must be the same bytes, routes in request-ID order.
func TestPrintStateIsByteStable(t *testing.T) {
	snap := explain.Snapshot{
		At: 5400, Value: 350e6,
		Links:   []string{"gs-0/xcvr-0|hbal-001/xcvr-1"},
		Intents: map[string]string{"gs-0/xcvr-0|hbal-001/xcvr-1": "installed"},
		Routes:  map[string][]string{},
	}
	for i := 7; i >= 1; i-- {
		id := fmt.Sprintf("backhaul/hbal-%03d", i)
		snap.Routes[id] = []string{fmt.Sprintf("hbal-%03d", i), "hbal-001", "gs-0"}
	}
	render := func() string {
		var b bytes.Buffer
		printState(&b, 5460, snap)
		return b.String()
	}
	first := render()
	// A small map's iteration starts at a random offset, so one repeat
	// would agree by chance one time in eight.
	for i := 0; i < 32; i++ {
		if got := render(); got != first {
			t.Fatalf("rendering %d differs:\n%s\nvs\n%s", i+2, got, first)
		}
	}
	at := -1
	for i := 1; i <= 7; i++ {
		next := strings.Index(first, fmt.Sprintf("  backhaul/hbal-%03d: ", i))
		if next <= at {
			t.Fatalf("route %d missing or out of request-ID order in:\n%s", i, first)
		}
		at = next
	}
}
