// Command explain runs a scenario and demonstrates the §6
// explainability tooling: the filtered change-log, the time scrubber,
// and why-not queries against the live plan.
//
// Usage:
//
//	explain -hours 3 -at 5400 -kind link-state -subject hbal-001
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"minkowski"
	"minkowski/internal/explain"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
}

// run parses args, runs the scenario and prints the scrubbed state,
// the change-log and the optional why-not answer on stdout. The only
// errors are command-line errors, which the flag package has already
// reported on stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	hours := fs.Float64("hours", 3, "simulated hours to run")
	seed := fs.Int64("seed", 1, "simulation seed")
	at := fs.Float64("at", 0, "scrub to this sim time (seconds; 0 = end)")
	kind := fs.String("kind", "", "filter events by kind (solve, link-state, command, ...)")
	subject := fs.String("subject", "", "filter events by subject substring")
	limit := fs.Int("limit", 30, "max events to print")
	whyA := fs.String("whynot-a", "", "transceiver A for a why-not query (node/xcvr-i)")
	whyB := fs.String("whynot-b", "", "transceiver B for a why-not query")
	if err := fs.Parse(args); err != nil {
		return err
	}

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
	if st, ok := sim.StateAt(scrubAt); ok {
		printState(stdout, scrubAt, st)
	} else {
		fmt.Fprintln(stdout, "no snapshot recorded yet")
	}
	// 2. Change-log.
	f := explain.Filter{Kind: *kind, Subject: *subject, To: scrubAt}
	events := sim.Events(f)
	fmt.Fprintf(stdout, "\n== change log (%d matching events, last %d) ==\n", len(events), *limit)
	for _, e := range events[max(0, len(events)-*limit):] {
		fmt.Fprintln(stdout, e)
	}
	// 3. Why-not.
	if *whyA != "" && *whyB != "" {
		fmt.Fprintf(stdout, "\n== why not %s <-> %s ==\n%s\n", *whyA, *whyB, sim.WhyNot(*whyA, *whyB))
	}
	return nil
}

// printState renders a scrubbed state: installed links in link-ID
// order, routes by request ID.
func printState(w io.Writer, scrubAt float64, st explain.State) {
	fmt.Fprintf(w, "== state at t=%.0fs (snapshot t=%.0fs, plan value %.0f) ==\n", scrubAt, st.At, st.Value)
	fmt.Fprintf(w, "installed links (%d):\n", len(st.Links))
	for _, l := range st.Links {
		fmt.Fprintf(w, "  %s [%s]\n", l.ID, l.Intent)
	}
	fmt.Fprintf(w, "routes (%d):\n", len(st.Routes))
	for _, r := range st.Routes {
		fmt.Fprintf(w, "  %s: %v\n", r.ID, r.Path)
	}
}
