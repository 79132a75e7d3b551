package main

import (
	"math"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// The shared sandbox's speed drifts by a third over minutes, for every
// workload at once and in CPU time as much as in wall time: ten raw
// invocations of identical work spread 24 to 29 % (inter-quartile range
// over median), above the largest bound the benchmark contract allows,
// and repeats inside an invocation cannot see it. A fixed reference
// computation, timed twice before every repeat of a world and after
// the last, follows the drift (its least time moved 0.8 to 1.1 % for
// every 1 % the least time of a fleet run moved), and the world's wall and CPU time are reported as
// they would read on a machine where the reference takes
// referenceNominalS — its usual time on the 2-core sandbox, so that in
// a quiet minute the normalised and the raw numbers agree. The
// reference uses no code of this repository (no change can speed it up)
// and allocates nothing (it leaves the run's heap and GC pacing alone).
// It is single-threaded: contention on the second core alone, which only
// fleet-56 would feel, goes unseen.

const referenceNominalS = 0.0217

// referenceData is the reference's working set, built once.
var referenceData = func() (d struct {
	keys []string
	m    map[string]float64
	xs   []float64
}) {
	d.m = map[string]float64{}
	for i := 0; i < 6000; i++ {
		k := "hbal-" + strconv.Itoa(i%1499) + "/xcvr-" + strconv.Itoa(i%3)
		d.keys = append(d.keys, k)
		d.m[k] += math.Sin(float64(i))
	}
	d.xs = make([]float64, 30000)
	return d
}()

var referenceSink float64

// reference is the fixed work: a mix of what the simulator does
// (string-keyed map lookups, float math, sorting).
func reference() {
	d := &referenceData
	for rep := 0; rep < 6; rep++ {
		s := 0.0
		for j := 0; j < 20; j++ {
			for _, k := range d.keys {
				s += d.m[k]
			}
		}
		for i := range d.xs {
			d.xs[i] = math.Atan2(float64(i), s+1) + math.Sin(float64(i*rep))
		}
		sort.Float64s(d.xs)
		referenceSink += s + d.xs[100]
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// speedometer collects the reference's times over a stretch of work.
type speedometer struct{ wallS, cpuS []float64 }

// sample times the reference twice. Nothing else runs in the process
// meanwhile, so the process's CPU time is the reference's.
func (m *speedometer) sample() {
	for i := 0; i < 2; i++ {
		c0, t0 := cpuSeconds(), time.Now()
		reference()
		m.wallS = append(m.wallS, time.Since(t0).Seconds())
		m.cpuS = append(m.cpuS, cpuSeconds()-c0)
	}
}

// speed is the machine's speed relative to nominal (below 1: slower)
// over the samples, by the wall clock and by CPU time: measured times
// are multiplied by it, rates divided. The least sample counts, as the
// least cost of a world's repeats does: a burst hits some of either and
// only ever adds time. CPU time is scaled by the reference's CPU time,
// so stolen time, which stretches only the wall clock, does not touch
// it.
func (m speedometer) speed() (wall, cpu float64) {
	return referenceNominalS / quantile(m.wallS, 0), referenceNominalS / quantile(m.cpuS, 0)
}
