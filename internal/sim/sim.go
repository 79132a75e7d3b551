// Package sim is the deterministic discrete-event engine every other
// subsystem runs on. The paper's §6 asks for exactly this property:
// "Design solvers and their inputs in a way that enables the
// reproducibility of network commands in tests and post-hoc
// analysis." All randomness is drawn from named, seeded streams so a
// run is a pure function of its configuration.
//
// Time is a float64 in seconds since simulation start.
package sim

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Event is one scheduled callback.
type event struct {
	at  float64
	seq uint64 // FIFO tiebreak for simultaneous events
	fn  func()
	// canceled events stay in the heap but are skipped.
	canceled bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at < h[j].at {
		return true
	}
	if h[j].at < h[i].at {
		return false
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Timer is a handle for a scheduled event that can be canceled.
type Timer struct{ ev *event }

// Cancel prevents the event from firing. Canceling an already-fired
// or already-canceled timer is a no-op.
func (t *Timer) Cancel() {
	if t != nil && t.ev != nil {
		t.ev.canceled = true
	}
}

// Engine is the event loop.
type Engine struct {
	now  float64
	pq   eventHeap
	seq  uint64
	seed int64
	rngs map[string]*rand.Rand
	// Processed counts executed events (telemetry/tests).
	Processed uint64
}

// New creates an engine with the master seed all named RNG streams
// derive from.
func New(seed int64) *Engine {
	return &Engine{seed: seed, rngs: make(map[string]*rand.Rand)}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// RNG returns the named deterministic random stream, creating it on
// first use. Distinct names give independent streams; the same name
// always gives the same sequence for the same master seed.
func (e *Engine) RNG(name string) *rand.Rand {
	if r, ok := e.rngs[name]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	r := rand.New(rand.NewSource(e.seed ^ int64(h.Sum64())))
	e.rngs[name] = r
	return r
}

// At schedules fn at absolute time t. Scheduling in the past (or at
// the current instant) fires on the next dispatch at the current
// time. Returns a cancelable Timer.
func (e *Engine) At(t float64, fn func()) *Timer {
	return &Timer{ev: e.schedule(t, fn)}
}

// schedule queues fn at absolute time t (clamped to now) behind every
// event already queued for that instant.
func (e *Engine) schedule(t float64, fn func()) *event {
	if fn == nil {
		panic("sim: nil event function")
	}
	if math.IsNaN(t) {
		panic("sim: NaN event time")
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := &event{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.pq, ev)
	return ev
}

// After schedules fn d seconds from now.
func (e *Engine) After(d float64, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Every schedules fn to run now and then every interval seconds for
// as long as fn returns true. The returned Timer cancels the
// *pending* occurrence. The series is one event that re-arms itself:
// after fn returns it takes the next sequence number (so it queues
// behind anything fn scheduled for the same instant) and goes back on
// the heap, which also clears a Cancel made from inside fn.
func (e *Engine) Every(interval float64, fn func() bool) *Timer {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %v", interval))
	}
	var ev *event
	ev = e.schedule(e.now, func() {
		if fn() {
			e.seq++
			ev.at, ev.seq, ev.canceled = e.now+interval, e.seq, false
			heap.Push(&e.pq, ev)
		}
	})
	return &Timer{ev: ev}
}

// Step executes the single next event, advancing the clock to it.
// Returns false when no events remain.
func (e *Engine) Step() bool {
	for e.pq.Len() > 0 {
		ev := heap.Pop(&e.pq).(*event)
		if ev.canceled {
			continue
		}
		e.now = ev.at
		e.Processed++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the clock would pass `until` (inclusive)
// or the queue drains. The clock finishes at exactly `until` if it
// was reached.
func (e *Engine) Run(until float64) {
	for e.pq.Len() > 0 {
		// Peek.
		next := e.pq[0]
		if next.canceled {
			heap.Pop(&e.pq)
			continue
		}
		if next.at > until {
			break
		}
		heap.Pop(&e.pq)
		e.now = next.at
		e.Processed++
		next.fn()
	}
	if e.now < until {
		e.now = until
	}
}

// Pending returns the number of live events in the queue.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.pq {
		if !ev.canceled {
			n++
		}
	}
	return n
}
