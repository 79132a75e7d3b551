// Package mapitertest exercises the mapiter analyzer.
package mapitertest

import (
	"sort"

	"minkowski/internal/explain"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/sim"
	"minkowski/internal/telemetry"
)

func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // collect-then-sort idiom: fine
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func collectThenSortSlice(m map[string]int) []string {
	var keys []string
	for k := range m { // sorted via sort.Slice afterwards: fine
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func unsortedCollect(m map[string]int) []string {
	var out []string
	for k := range m { // want `appends to out \(declared outside the loop, never sorted\)`
		out = append(out, k)
	}
	return out
}

func channelSend(m map[string]int, ch chan<- string) {
	for k := range m { // want `sends on a channel`
		ch <- k
	}
}

func telemetrySink(m map[string]bool, r *telemetry.Reachability) {
	for node, up := range m { // want `calls into order-sensitive package minkowski/internal/telemetry`
		r.Observe(0, node, telemetry.LayerLink, up)
	}
}

// powerTransitions is the shape of core.stepFleet's power sweep before
// it iterated ID-sorted: failing nodes and logging in map order.
func powerTransitions(balloons map[string]*platform.Node, wasOn map[string]bool, fab *radio.Fabric, log *explain.Log) {
	for id, n := range balloons { // want `calls into order-sensitive package minkowski/internal/radio` `calls into order-sensitive package minkowski/internal/explain`
		on := n.Operational()
		if wasOn[id] && !on {
			fab.FailNode(id, radio.ReasonPowerLoss)
			log.Append(0, explain.EvNodeLeave, id, "payload powered down")
		}
		wasOn[id] = on
	}
}

// rediscover is the shape of manet.AODV's interest sweep before its
// interests became a slice: events scheduled for one instant run in
// scheduling order, so map order chose who drew from the RNG first.
func rediscover(eng *sim.Engine, interests map[string][]string, discover func(src, dst string)) {
	for src, dsts := range interests { // want `calls into order-sensitive package minkowski/internal/sim`
		for _, dst := range dsts {
			src, dst := src, dst
			eng.After(1, func() { discover(src, dst) })
		}
	}
}

func sortedPowerTransitions(nodes []*platform.Node, wasOn map[string]bool, fab *radio.Fabric) {
	for _, n := range nodes { // a slice in ID order: fine
		if wasOn[n.ID] && !n.Operational() {
			fab.FailNode(n.ID, radio.ReasonPowerLoss)
		}
		wasOn[n.ID] = n.Operational()
	}
}

func commutativeFold(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m { // commutative fold: fine
		sum += v
	}
	return sum
}

func deleteSweep(m map[string]int) {
	for k, v := range m { // deleting from the ranged map: fine
		if v == 0 {
			delete(m, k)
		}
	}
}

func loopLocalAppend(m map[string][]int) int {
	total := 0
	for _, vs := range m { // appends only to a loop-local slice: fine
		local := make([]int, 0, len(vs))
		for _, v := range vs {
			local = append(local, v*2)
		}
		total += len(local)
	}
	return total
}

func justified(m map[string]int, ch chan<- string) {
	//minkowski:unordered-ok receiver drains into an order-insensitive set
	for k := range m {
		ch <- k
	}
}

// Sweeps inside function literals are judged like any other.

func sweepInLiteral(m map[string]int) func() []string {
	return func() []string {
		var keys []string
		for k := range m { // want `appends to keys \(declared outside the loop, never sorted\)`
			keys = append(keys, k)
		}
		return keys
	}
}

func sortedInLiteral(m map[string]int) func() []string {
	return func() []string {
		var keys []string
		for k := range m { // collect-then-sort inside the literal: fine
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
}

func badJustification(m map[string]int, ch chan<- string) {
	//minkowski:unordered-ok
	for k := range m { // want `requires a justification`
		ch <- k
	}
}

// A misspelt suppression is not the directive: the sweep still reports.
func misspeltSuppression(m map[string]int, ch chan<- string) {
	//minkowski:unorderd-ok receiver drains into an order-insensitive set
	for k := range m { // want `sends on a channel`
		ch <- k
	}
}
