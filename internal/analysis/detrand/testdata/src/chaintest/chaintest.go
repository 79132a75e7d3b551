// Package chaintest holds the call-chain shapes a determinism sink can
// hide in below a solve entry point: a clock read two calls down, a
// GOMAXPROCS read in a worker-count helper, an ambient rand draw one
// call down, and a clock read inside a goroutine literal. detrand
// reports each at the sink itself, so the chain above it needs no
// analysis; the roots carry no finding.
package chaintest

import (
	"math/rand"
	"runtime"
	"time"
)

// Solve is an entry point; the clock read is two calls down.
func Solve(x int) int {
	return step1(x)
}

func step1(x int) int { return step2(x) }
func step2(x int) int { return int(time.Now().UnixNano()) + x } // want `wall-clock read time\.Now`

// Hot reaches a GOMAXPROCS read mid-chain in a worker-count helper:
// the shape of the mid-solve re-sharding regression.
func Hot(x int) int {
	return shard(x)
}

func shard(x int) int { return x % workers() }

func workers() int { return runtime.GOMAXPROCS(0) } // want `runtime\.GOMAXPROCS reads the ambient parallelism`

// HotJitter reaches the global rand source one call down.
func HotJitter(x int) int {
	return jitter(x)
}

func jitter(x int) int { return x + rand.Intn(3) } // want `package-level rand\.Intn`

// HotFanOut launches goroutine literals that read the clock.
func HotFanOut(n int) {
	for i := 0; i < n; i++ {
		go func() {
			_ = time.Now() // want `wall-clock read time\.Now`
		}()
	}
}

// HotSeeded draws only from an explicitly seeded source: the
// sanctioned idiom.
func HotSeeded(seed int64, x int) int {
	r := rand.New(rand.NewSource(seed))
	return x + r.Intn(3)
}

// unreached reads the clock but no entry point calls it: the read is
// still a finding, because the site, not its reachability, is judged.
func unreached() int64 { return time.Now().UnixNano() } // want `wall-clock read time\.Now`

var _ = unreached
