// Quickstart: the smallest useful Minkowski simulation — five
// balloons, one ground station, two simulated hours. It prints the
// topology as it evolves and finishes with the availability summary.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"sort"

	"minkowski"
)

func main() {
	s := minkowski.DefaultScenario()
	s.Seed = 7
	s.FleetSize = 5
	s.DisablePower = true // keep the demo focused on topology
	// A single gateway site for the smallest possible mesh.
	s.GroundStations = s.GroundStations[:1]

	sim := minkowski.NewSimulation(s)
	fmt.Println("bootstrapping a 5-balloon mesh over one ground station...")
	for hour := 1; hour <= 2; hour++ {
		sim.RunHours(1)
		fmt.Printf("\n--- after %d h ---\n", hour)
		for _, l := range sim.Links() {
			kind := "B2B"
			if l.B2G {
				kind = "B2G"
			}
			fmt.Printf("  %s %-22s <-> %-22s %4.0f Mbps (margin %.1f dB)\n",
				kind, l.A, l.B, l.BitrateBps/1e6, l.MarginDB)
		}
		routes := sim.Routes()
		ids := make([]string, 0, len(routes))
		for id := range routes {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Printf("  route %-22s %v\n", id, routes[id])
		}
	}
	fmt.Println()
	fmt.Print(sim.Summary())
}
