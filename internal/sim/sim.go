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
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// slot holds one scheduled callback. A slot lives from At/Every until
// its event fires (a one-shot, or a series whose fn returns false) or
// is canceled; then gen is bumped and the slot joins the free list, so
// a Timer still naming it cancels nothing.
type slot struct {
	fn  func()
	pos int32 // index in pq; -1 while fn runs or while free
	gen uint32
}

// entry is one queued event. (at, seq) is a strict total order: seq
// is unique, so every correct heap pops the same sequence.
type entry struct {
	at   float64
	seq  uint64 // FIFO tiebreak for simultaneous events
	slot int32
}

func (a *entry) less(b *entry) bool {
	if a.at < b.at {
		return true
	}
	if b.at < a.at {
		return false
	}
	return a.seq < b.seq
}

// Timer is a handle for a scheduled event that can be canceled. The
// zero Timer cancels nothing.
type Timer struct {
	e    *Engine
	slot int32
	gen  uint32
}

// Cancel removes the event from the queue. Canceling an already-fired
// or already-canceled timer is a no-op, and so is canceling a series
// from inside its own fn (it has no pending occurrence then).
func (t Timer) Cancel() {
	if t.e == nil {
		return
	}
	s := &t.e.slots[t.slot]
	if s.gen != t.gen || s.pos < 0 {
		return
	}
	t.e.remove(int(s.pos))
	t.e.release(t.slot)
}

// Engine is the event loop.
type Engine struct {
	now   float64
	pq    []entry
	slots []slot
	free  []int32 // released slot indices
	seq   uint64
	seed  int64
	rngs  map[string]*rand.Rand
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
func (e *Engine) At(t float64, fn func()) Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	if math.IsNaN(t) {
		panic("sim: NaN event time")
	}
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	e.slots[i].fn = fn
	e.push(t, i)
	return Timer{e: e, slot: i, gen: e.slots[i].gen}
}

// push queues slot i at absolute time t (clamped to now) behind every
// event already queued for that instant.
func (e *Engine) push(t float64, i int32) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.pq = append(e.pq, entry{at: t, seq: e.seq, slot: i})
	e.up(len(e.pq) - 1)
}

// release frees slot i for reuse and invalidates every Timer naming it.
func (e *Engine) release(i int32) {
	e.slots[i].fn = nil
	e.slots[i].gen++
	e.free = append(e.free, i)
}

// up and down sift pq[i] toward the root or the leaves, keeping each
// moved entry's slot.pos in step with its index.
func (e *Engine) up(i int) {
	x := e.pq[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(&e.pq[p]) {
			break
		}
		e.pq[i] = e.pq[p]
		e.slots[e.pq[i].slot].pos = int32(i)
		i = p
	}
	e.pq[i] = x
	e.slots[x.slot].pos = int32(i)
}

func (e *Engine) down(i int) {
	x := e.pq[i]
	n := len(e.pq)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && e.pq[r].less(&e.pq[c]) {
			c = r
		}
		if !e.pq[c].less(&x) {
			break
		}
		e.pq[i] = e.pq[c]
		e.slots[e.pq[i].slot].pos = int32(i)
		i = c
	}
	e.pq[i] = x
	e.slots[x.slot].pos = int32(i)
}

// remove takes pq[i] off the heap and marks its slot unqueued.
func (e *Engine) remove(i int) {
	e.slots[e.pq[i].slot].pos = -1
	last := len(e.pq) - 1
	e.pq[i] = e.pq[last]
	e.pq = e.pq[:last]
	if i < last {
		// At most one of the two moves it: whatever down leaves at i
		// was a child of the removed entry, so no less than i's parent.
		e.down(i)
		e.up(i)
	}
}

// After schedules fn d seconds from now.
func (e *Engine) After(d float64, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Every schedules fn to run now and then every interval seconds for
// as long as fn returns true. The returned Timer cancels the
// *pending* occurrence. The series is one slot that re-arms itself:
// after fn returns it takes the next sequence number (so it queues
// behind anything fn scheduled for the same instant) and goes back on
// the heap.
func (e *Engine) Every(interval float64, fn func() bool) Timer {
	if !(interval > 0) || math.IsInf(interval, 1) {
		panic(fmt.Sprintf("sim: interval %v is not positive and finite", interval))
	}
	var i int32
	t := e.At(e.now, func() {
		if fn() {
			e.push(e.now+interval, i)
		}
	})
	i = t.slot
	return t
}

// Step executes the single next event, advancing the clock to it.
// Returns false when no events remain.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	e.fire()
	return true
}

// Run executes events until the clock would pass `until` (inclusive)
// or the queue drains. The clock finishes at exactly `until` if it
// was reached.
func (e *Engine) Run(until float64) {
	for len(e.pq) > 0 && !(e.pq[0].at > until) {
		e.fire()
	}
	if e.now < until {
		e.now = until
	}
}

// fire pops the earliest event and runs it. The slot stays allocated
// while fn runs (pos -1, so a Cancel from inside fn is a no-op) and is
// released afterwards unless fn re-armed it (an Every series).
func (e *Engine) fire() {
	top := e.pq[0]
	e.remove(0)
	e.now = top.at
	e.Processed++
	e.slots[top.slot].fn()
	if e.slots[top.slot].pos < 0 {
		e.release(top.slot)
	}
}

// Pending returns the number of live events in the queue.
func (e *Engine) Pending() int { return len(e.pq) }
