//go:build !race

package explain

import (
	"testing"

	"minkowski/internal/radio"
)

// TestTypedRowsDoNotAllocate: once the row slice has room, appending
// the hot rows — a command, a link-state change, a route program —
// formats nothing and allocates nothing.
func TestTypedRowsDoNotAllocate(t *testing.T) {
	var l Log
	id := radio.MakeLinkID("hbal-001/xcvr-0", "hbal-002/xcvr-1")
	path := []string{"hbal-002", "hbal-001", "gs-0"}
	rows := func() {
		l.Add(Event{At: 60, Op: Establish, Link: id, N: 1, TTE: 75})
		l.Add(Event{At: 61, Op: LinkDown, Link: id, Reason: radio.ReasonRFFade})
		l.Add(Event{At: 62, Op: RouteProgram, Name: "backhaul/hbal-002", N: 2, Path: path})
	}
	l.rows = make([]Event, 0, 400)
	if allocs := testing.AllocsPerRun(100, rows); allocs != 0 {
		t.Errorf("appending three typed rows allocates %.0f times, want 0", allocs)
	}
}
