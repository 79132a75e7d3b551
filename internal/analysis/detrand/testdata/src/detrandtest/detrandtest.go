// Package detrandtest exercises the detrand analyzer.
package detrandtest

import (
	"math/rand"
	"os"
	"runtime"
	"time"
)

// Config stands in for a scenario configuration.
type Config struct {
	Seed int64
}

func wallClock() {
	_ = time.Now()              // want `wall-clock read time\.Now`
	t0 := time.Unix(0, 0)       // constructing from a literal is fine
	_ = time.Since(t0)          // want `wall-clock read time\.Since`
	_ = time.Until(t0)          // want `wall-clock read time\.Until`
	_ = t0.Add(3 * time.Second) // method on a value: fine
	_ = time.Duration(42).Round(time.Second)
}

func ambientRand() {
	_ = rand.Intn(10)                  // want `package-level rand\.Intn`
	_ = rand.Float64()                 // want `package-level rand\.Float64`
	rand.Shuffle(3, func(i, j int) {}) // want `package-level rand\.Shuffle`
	rand.Seed(42)                      // want `package-level rand\.Seed`
}

func injected(cfg Config) {
	rng := rand.New(rand.NewSource(cfg.Seed)) // config-derived seed: fine
	_ = rng.Intn(10)                          // method on injected RNG: fine
	derived := rand.New(rand.NewSource(cfg.Seed ^ 0x9e3779b9))
	_ = derived.Float64()
}

func badSeeds(cfg Config) {
	_ = rand.NewSource(time.Now().UnixNano())                   // want `wall-clock read time\.Now` `seeded from the wall clock`
	_ = rand.NewSource(int64(os.Getpid()))                      // want `seeded from the process id`
	_ = rand.New(rand.NewSource(cfg.Seed + int64(os.Getpid()))) // want `seeded from the process id`
}

// workers is the shape of the mid-solve re-sharding regression: a
// worker-count helper consulting the ambient parallelism.
func workers() int {
	return runtime.GOMAXPROCS(0) // want `runtime\.GOMAXPROCS reads the ambient parallelism`
}

// References taken as values are findings at the identifier: the sink
// reaches whatever later calls the value.

func solve(now func() time.Time) int64 { return now().UnixNano() }

func clockAsArgument() int64 {
	return solve(time.Now) // want `wall-clock read time\.Now`
}

type picker struct{ pick func(int) int }

func drawInField() *picker {
	return &picker{pick: rand.Intn} // want `package-level rand\.Intn`
}

var procs = runtime.GOMAXPROCS // want `runtime\.GOMAXPROCS reads the ambient parallelism`

func fanOut(n int) {
	for i := 0; i < n; i++ {
		go func() {
			_ = time.Now() // want `wall-clock read time\.Now`
		}()
	}
}
