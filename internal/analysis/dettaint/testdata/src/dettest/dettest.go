// Package dettest exercises the dettaint analyzer: wall-clock,
// unseeded-rand, GOMAXPROCS, and map-order sinks reached through call
// chains from Solve///minkowski:hotpath roots, with
// per-site //minkowski:dettaint-ok exemptions.
package dettest

import (
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// Solve is a root by name; the clock read is two calls down.
func Solve(x int) int { // want `hotpath root Solve reaches the wall clock \(time\.Now\) at dettest\.go:\d+ \(via dettest\.Solve → dettest\.step1 → dettest\.step2\)`
	return step1(x)
}

func step1(x int) int { return step2(x) }
func step2(x int) int { return int(time.Now().UnixNano()) + x }

// Hot is a root by annotation. The GOMAXPROCS read sits mid-chain in
// a worker-count helper — the exact shape of the mid-solve
// re-sharding regression.
//
//minkowski:hotpath
func Hot(x int) int { // want `hotpath root Hot reaches runtime\.GOMAXPROCS .* \(via dettest\.Hot → dettest\.shard → dettest\.workers\)`
	return shard(x)
}

func shard(x int) int { return x % workers() }

func workers() int { return runtime.GOMAXPROCS(0) }

// HotJitter reaches the global rand source one call down.
//
//minkowski:hotpath
func HotJitter(x int) int { // want `hotpath root HotJitter reaches the unseeded global rand source \(rand\.Intn\)`
	return jitter(x)
}

func jitter(x int) int { return x + rand.Intn(3) }

// HotSweep reaches an unsorted, order-sensitive map sweep.
//
//minkowski:hotpath
func HotSweep(m map[string]int) []string { // want `hotpath root HotSweep reaches a map iteration whose body appends to keys`
	return sweep(m)
}

func sweep(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// HotFanOut launches goroutine literals; sinks inside them are
// reached through the KindGo edge.
//
//minkowski:hotpath
func HotFanOut(n int) { // want `hotpath root HotFanOut reaches the wall clock .* \(via dettest\.HotFanOut → function literal\)`
	for i := 0; i < n; i++ {
		go func() {
			_ = time.Now()
		}()
	}
}

// --- Negatives -------------------------------------------------------

// HotSeeded draws only from an explicitly seeded source: the
// sanctioned idiom.
//
//minkowski:hotpath
func HotSeeded(seed int64, x int) int {
	r := rand.New(rand.NewSource(seed))
	return x + r.Intn(3)
}

// HotSortedSweep uses the collect-then-sort idiom: order-insensitive.
//
//minkowski:hotpath
func HotSortedSweep(m map[string]int) []string {
	return sortedKeys(m)
}

func sortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// notARoot reads the clock but is unreachable from any root.
func notARoot() int64 { return time.Now().UnixNano() }

// HotAnnotated reaches a clock read whose site carries a justified
// exemption.
//
//minkowski:hotpath
func HotAnnotated() int64 {
	return stampOK()
}

func stampOK() int64 {
	//minkowski:dettaint-ok journal timestamps are display-only and excluded from the byte-compare
	return time.Now().UnixNano()
}

// HotBadAnnotation reaches a clock read whose exemption has no
// justification: the directive itself is the finding.
//
//minkowski:hotpath
func HotBadAnnotation() int64 { // want `hotpath root HotBadAnnotation: //minkowski:dettaint-ok at dettest\.go:\d+ requires a justification`
	return stampBad()
}

func stampBad() int64 {
	//minkowski:dettaint-ok
	return time.Now().UnixNano()
}

var _ = notARoot
