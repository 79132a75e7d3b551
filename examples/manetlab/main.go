// MANET lab: the Appendix D protocol study as a runnable experiment.
// Four routing protocols — batman-adv-style, AODV, DSDV, OLSR — run
// over the same churning mesh; we measure route availability to the
// gateway, repair latency after a cut, and control-plane overhead.
//
//	go run ./examples/manetlab
package main

import (
	"fmt"
	"io"
	"os"

	"minkowski/internal/manet"
	"minkowski/internal/sim"
)

const nodes = 12

func build(eng *sim.Engine, name string, net *manet.StaticNetwork) manet.Router {
	switch name {
	case "batman":
		return manet.NewBATMAN(eng, net, manet.DefaultBATMANConfig())
	case "aodv":
		a := manet.NewAODV(eng, net, manet.DefaultAODVConfig())
		for i := 1; i <= nodes; i++ {
			a.Interest(fmt.Sprintf("b%02d", i), "gs")
		}
		return a
	case "dsdv":
		return manet.NewDSDV(eng, net, manet.DefaultDSDVConfig())
	default:
		return manet.NewOLSR(eng, net, manet.DefaultOLSRConfig())
	}
}

func topology() *manet.StaticNetwork {
	net := manet.NewStaticNetwork()
	net.AddNode("gs")
	prev, prev2 := "gs", ""
	for i := 1; i <= nodes; i++ {
		id := fmt.Sprintf("b%02d", i)
		net.Connect(prev, id)
		if prev2 != "" {
			net.Connect(prev2, id)
		}
		prev2, prev = prev, id
	}
	return net
}

func main() { run(os.Stdout) }

func run(w io.Writer) {
	fmt.Fprintf(w, "%-8s %-14s %-14s %-12s %s\n", "proto", "availability", "mean repair", "ctrl bytes", "ctrl msgs")
	last := fmt.Sprintf("b%02d", nodes)
	for _, name := range []string{"batman", "aodv", "dsdv", "olsr"} {
		eng := sim.New(42)
		net := topology()
		r := build(eng, name, net)
		r.Start()
		eng.Run(30) // converge
		samples, avail := 0, 0
		var repairs []float64
		for round := 0; round < 10; round++ {
			// Cut the tail's primary link; measure repair via the
			// redundant path; then restore.
			net.Disconnect(last, fmt.Sprintf("b%02d", nodes-1))
			cutAt := eng.Now()
			repaired := -1.0
			for s := 0; s < 30; s++ {
				eng.Run(eng.Now() + 1)
				samples++
				if manet.HasRoute(r, last, "gs") {
					avail++
					if repaired < 0 {
						repaired = eng.Now() - cutAt
					}
				}
			}
			if repaired >= 0 {
				repairs = append(repairs, repaired)
			}
			net.Connect(last, fmt.Sprintf("b%02d", nodes-1))
			for s := 0; s < 10; s++ {
				eng.Run(eng.Now() + 1)
				samples++
				if manet.HasRoute(r, last, "gs") {
					avail++
				}
			}
		}
		mean := 0.0
		for _, x := range repairs {
			mean += x
		}
		if len(repairs) > 0 {
			mean /= float64(len(repairs))
		}
		st := r.Stats()
		fmt.Fprintf(w, "%-8s %-14.3f %-14s %-12d %d\n",
			r.Name(), float64(avail)/float64(samples),
			fmt.Sprintf("%.1fs (n=%d)", mean, len(repairs)),
			st.BytesSent, st.MessagesSent)
	}
	fmt.Fprintln(w, "\npaper's Appendix D finding: AODV & DSDV converge well; AODV has lower")
	fmt.Fprintln(w, "overhead because Loon only needs routes to a handful of SDN endpoints.")
}
