// Command explain runs a scenario and demonstrates the §6
// explainability tooling: the filtered change-log, the time scrubber,
// and why-not queries against the live plan.
//
// Usage:
//
//	explain -hours 3 -at 5400 -kind link-state -subject hbal-001
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"minkowski"
	"minkowski/internal/explain"
)

func main() {
	hours := flag.Float64("hours", 3, "simulated hours to run")
	seed := flag.Int64("seed", 1, "simulation seed")
	at := flag.Float64("at", 0, "scrub to this sim time (seconds; 0 = end)")
	kind := flag.String("kind", "", "filter events by kind (solve, link-state, command, ...)")
	subject := flag.String("subject", "", "filter events by subject substring")
	limit := flag.Int("limit", 30, "max events to print")
	whyA := flag.String("whynot-a", "", "transceiver A for a why-not query (node/xcvr-i)")
	whyB := flag.String("whynot-b", "", "transceiver B for a why-not query")
	flag.Parse()

	s := minkowski.DefaultScenario()
	s.Seed = *seed
	s.FleetSize = 10
	s.DisablePower = true
	sim := minkowski.NewSimulation(s)
	sim.RunHours(*hours)

	scrubAt := *at
	if scrubAt == 0 {
		scrubAt = sim.Now()
	}
	// 1. State at the scrub point.
	if snap, ok := sim.StateAt(scrubAt); ok {
		printState(os.Stdout, scrubAt, snap)
	} else {
		fmt.Println("no snapshot recorded yet")
	}
	// 2. Change-log.
	f := explain.Filter{Kind: explain.EventKind(*kind), Subject: *subject, To: scrubAt}
	events := sim.Events(f)
	fmt.Printf("\n== change log (%d matching events, last %d) ==\n", len(events), *limit)
	start := 0
	if len(events) > *limit {
		start = len(events) - *limit
	}
	for _, e := range events[start:] {
		fmt.Println(e)
	}
	// 3. Why-not.
	if *whyA != "" && *whyB != "" {
		fmt.Printf("\n== why not %s <-> %s ==\n%s\n", *whyA, *whyB, sim.WhyNot(*whyA, *whyB))
	}
}

// printState renders a scrubber snapshot: installed links in recorded
// order, routes by request ID (Snapshot.Routes is a map; the output is
// byte-identical for one snapshot).
func printState(w io.Writer, scrubAt float64, snap explain.Snapshot) {
	fmt.Fprintf(w, "== state at t=%.0fs (snapshot t=%.0fs, plan value %.0f) ==\n", scrubAt, snap.At, snap.Value)
	fmt.Fprintf(w, "installed links (%d):\n", len(snap.Links))
	for _, l := range snap.Links {
		fmt.Fprintf(w, "  %s [%s]\n", l, snap.Intents[l])
	}
	fmt.Fprintf(w, "routes (%d):\n", len(snap.Routes))
	ids := make([]string, 0, len(snap.Routes))
	for id := range snap.Routes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "  %s: %v\n", id, snap.Routes[id])
	}
}
