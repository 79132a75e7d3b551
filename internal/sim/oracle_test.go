package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The engine this package had before the slot table, kept verbatim
// (names prefixed ref) as the oracle for TestEngineMatchesHeapOracle:
// a container/heap of *event where a canceled event stays in the heap
// as a tombstone until it is popped.

// Event is one scheduled callback.
type refEvent struct {
	at  float64
	seq uint64 // FIFO tiebreak for simultaneous events
	fn  func()
	// canceled events stay in the heap but are skipped.
	canceled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at < h[j].at {
		return true
	}
	if h[j].at < h[i].at {
		return false
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Timer is a handle for a scheduled event that can be canceled.
type refTimer struct{ ev *refEvent }

// Cancel prevents the event from firing. Canceling an already-fired
// or already-canceled timer is a no-op.
func (t *refTimer) Cancel() {
	if t != nil && t.ev != nil {
		t.ev.canceled = true
	}
}

// Engine is the event loop.
type refEngine struct {
	now  float64
	pq   refHeap
	seq  uint64
	seed int64
	rngs map[string]*rand.Rand
	// Processed counts executed events (telemetry/tests).
	Processed uint64
}

// newRef creates an engine with the master seed all named RNG streams
// derive from.
func newRef(seed int64) *refEngine {
	return &refEngine{seed: seed, rngs: make(map[string]*rand.Rand)}
}

// Now returns the current simulation time in seconds.
func (e *refEngine) Now() float64 { return e.now }

// At schedules fn at absolute time t. Scheduling in the past (or at
// the current instant) fires on the next dispatch at the current
// time. Returns a cancelable Timer.
func (e *refEngine) At(t float64, fn func()) *refTimer {
	return &refTimer{ev: e.schedule(t, fn)}
}

// schedule queues fn at absolute time t (clamped to now) behind every
// event already queued for that instant.
func (e *refEngine) schedule(t float64, fn func()) *refEvent {
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
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.pq, ev)
	return ev
}

// After schedules fn d seconds from now.
func (e *refEngine) After(d float64, fn func()) *refTimer {
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
func (e *refEngine) Every(interval float64, fn func() bool) *refTimer {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %v", interval))
	}
	var ev *refEvent
	ev = e.schedule(e.now, func() {
		if fn() {
			e.seq++
			ev.at, ev.seq, ev.canceled = e.now+interval, e.seq, false
			heap.Push(&e.pq, ev)
		}
	})
	return &refTimer{ev: ev}
}

// Step executes the single next event, advancing the clock to it.
// Returns false when no events remain.
func (e *refEngine) Step() bool {
	for e.pq.Len() > 0 {
		ev := heap.Pop(&e.pq).(*refEvent)
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
func (e *refEngine) Run(until float64) {
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
func (e *refEngine) Pending() int {
	n := 0
	for _, ev := range e.pq {
		if !ev.canceled {
			n++
		}
	}
	return n
}

// scriptEngine is the surface the random scripts drive on both engines.
type scriptEngine interface {
	now() float64
	at(t float64, fn func()) (cancel func())
	after(d float64, fn func()) (cancel func())
	every(interval float64, fn func() bool) (cancel func())
	step() bool
	run(until float64)
	pending() int
	processed() uint64
}

type slotEngine struct{ *Engine }

func (e slotEngine) now() float64                            { return e.Now() }
func (e slotEngine) at(t float64, fn func()) func()          { return e.At(t, fn).Cancel }
func (e slotEngine) after(d float64, fn func()) func()       { return e.After(d, fn).Cancel }
func (e slotEngine) every(iv float64, fn func() bool) func() { return e.Every(iv, fn).Cancel }
func (e slotEngine) step() bool                              { return e.Step() }
func (e slotEngine) run(until float64)                       { e.Run(until) }
func (e slotEngine) pending() int                            { return e.Pending() }
func (e slotEngine) processed() uint64                       { return e.Processed }

type heapEngine struct{ *refEngine }

func (e heapEngine) now() float64                            { return e.Now() }
func (e heapEngine) at(t float64, fn func()) func()          { return e.At(t, fn).Cancel }
func (e heapEngine) after(d float64, fn func()) func()       { return e.After(d, fn).Cancel }
func (e heapEngine) every(iv float64, fn func() bool) func() { return e.Every(iv, fn).Cancel }
func (e heapEngine) step() bool                              { return e.Step() }
func (e heapEngine) run(until float64)                       { e.Run(until) }
func (e heapEngine) pending() int                            { return e.Pending() }
func (e heapEngine) processed() uint64                       { return e.Processed }

// script schedules, fires and cancels events on one engine. Every
// event has a label (its index in cancels); what an event does when it
// fires is drawn from a stream seeded by (script seed, label, tick), so
// two engines that fire the same sequence run the same script.
type script struct {
	eng     scriptEngine
	seed    int64
	cancels []func()
	fired   []string
}

const scriptMaxLabels = 300

// splitmix is a SplitMix64 stream: cheap to seed once per firing,
// where a math/rand source is not.
type splitmix uint64

func (m *splitmix) intn(n int) int {
	*m += 0x9e3779b97f4a7c15
	z := uint64(*m)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int((z ^ z>>31) % uint64(n))
}

func (s *script) act(label, tick int) {
	r := splitmix(uint64(s.seed)<<24 ^ uint64(label+1)<<8 ^ uint64(tick))
	delays := []float64{-2, 0, 0, 1, 1, 2.5, 3, 7}
	for n := 1 + r.intn(3); n > 0; n-- {
		if len(s.cancels) >= scriptMaxLabels {
			return
		}
		switch r.intn(8) {
		case 0, 1:
			d := delays[r.intn(len(delays))]
			s.schedule(func(fn func()) func() { return s.eng.at(s.eng.now()+d, fn) })
		case 2:
			d := delays[r.intn(len(delays))]
			s.schedule(func(fn func()) func() { return s.eng.after(d, fn) })
		case 3:
			s.series([]float64{1, 2.5, 4}[r.intn(3)], 1+r.intn(5))
		case 4: // any event: pending, fired, canceled or running
			if len(s.cancels) > 0 {
				s.cancels[r.intn(len(s.cancels))]()
			}
		case 5: // the newest event, just scheduled or long gone
			if len(s.cancels) > 0 {
				s.cancels[len(s.cancels)-1]()
			}
		case 6: // itself, from inside its own fn, maybe twice
			if label >= 0 {
				s.cancels[label]()
				if r.intn(2) == 0 {
					s.cancels[label]()
				}
			}
		case 7: // a batch of one-shots at one instant, then cancel one
			d := delays[r.intn(len(delays))]
			first := len(s.cancels)
			for k := 0; k < 4; k++ {
				s.schedule(func(fn func()) func() { return s.eng.at(s.eng.now()+d, fn) })
			}
			s.cancels[first+r.intn(4)]()
		}
	}
}

func (s *script) schedule(sched func(fn func()) func()) {
	label := len(s.cancels)
	s.cancels = append(s.cancels, nil)
	s.cancels[label] = sched(func() { s.fire(label, 0) })
}

// series starts an Every that ends by returning false after n ticks.
func (s *script) series(interval float64, n int) {
	label, tick := len(s.cancels), 0
	s.cancels = append(s.cancels, nil)
	s.cancels[label] = s.eng.every(interval, func() bool {
		s.fire(label, tick)
		tick++
		return tick < n
	})
}

func (s *script) fire(label, tick int) {
	s.fired = append(s.fired, fmt.Sprintf("%d.%d@%v", label, tick, s.eng.now()))
	s.act(label, tick)
}

// TestEngineMatchesHeapOracle drives the slot-table engine and the
// tombstone heap it replaced with the same random scripts and wants,
// after every Step (or Run chunk), the same firing sequence, clock,
// Processed and Pending.
func TestEngineMatchesHeapOracle(t *testing.T) {
	firings := 0
	for seed := int64(1); seed <= 120; seed++ {
		for _, useRun := range []bool{false, true} {
			got := &script{eng: slotEngine{New(seed)}, seed: seed}
			want := &script{eng: heapEngine{newRef(seed)}, seed: seed}
			for i := 0; i < 6; i++ {
				got.act(-1, i)
				want.act(-1, i)
			}
			chunks := rand.New(rand.NewSource(seed))
			checked := 0
			for n := 0; ; n++ {
				var more bool
				if useRun {
					until := got.eng.now() + []float64{0, 0.5, 1, 3, 8}[chunks.Intn(5)]
					got.eng.run(until)
					want.eng.run(until)
					more = got.eng.pending() > 0 || want.eng.pending() > 0
				} else {
					g, w := got.eng.step(), want.eng.step()
					if g != w {
						t.Fatalf("seed %d step %d: Step = %v, oracle %v", seed, n, g, w)
					}
					more = g
				}
				if len(got.fired) != len(want.fired) || got.eng.now() != want.eng.now() ||
					got.eng.processed() != want.eng.processed() || got.eng.pending() != want.eng.pending() {
					t.Fatalf("seed %d run=%v step %d: fired %d, now %v, processed %d, pending %d; oracle %d, %v, %d, %d",
						seed, useRun, n, len(got.fired), got.eng.now(), got.eng.processed(), got.eng.pending(),
						len(want.fired), want.eng.now(), want.eng.processed(), want.eng.pending())
				}
				for ; checked < len(got.fired); checked++ {
					if got.fired[checked] != want.fired[checked] {
						t.Fatalf("seed %d run=%v: firing %d is %s, oracle %s", seed, useRun, checked, got.fired[checked], want.fired[checked])
					}
				}
				if !more {
					break
				}
			}
			firings += len(got.fired)
		}
	}
	if firings < 10000 {
		t.Errorf("the scripts fired only %d events", firings)
	}
}
