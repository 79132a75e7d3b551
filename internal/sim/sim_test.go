package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 100 {
		t.Errorf("clock = %v, want 100", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", order)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	e := New(1)
	var firedAt float64 = -1
	e.At(50, func() {
		e.After(25, func() { firedAt = e.Now() })
	})
	e.Run(100)
	if firedAt != 75 {
		t.Errorf("After fired at %v, want 75", firedAt)
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	e := New(1)
	var firedAt float64 = -1
	e.At(50, func() {
		e.At(10, func() { firedAt = e.Now() }) // in the past
	})
	e.Run(100)
	if firedAt != 50 {
		t.Errorf("past event fired at %v, want clamped to 50", firedAt)
	}
}

func TestRunStopsAtBoundary(t *testing.T) {
	e := New(1)
	fired := false
	e.At(150, func() { fired = true })
	e.Run(100)
	if fired {
		t.Error("event past the run boundary must not fire")
	}
	if e.Now() != 100 {
		t.Errorf("clock = %v, want 100", e.Now())
	}
	e.Run(200)
	if !fired {
		t.Error("event should fire on the next run")
	}
}

func TestTimerCancel(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.At(10, func() { fired = true })
	tm.Cancel()
	e.Run(100)
	if fired {
		t.Error("canceled event fired")
	}
	// Double-cancel and nil-safe cancel must not panic.
	tm.Cancel()
	var nilT *Timer
	nilT.Cancel()
}

func TestEvery(t *testing.T) {
	e := New(1)
	count := 0
	e.Every(10, func() bool {
		count++
		return count < 5
	})
	e.Run(1000)
	if count != 5 {
		t.Errorf("periodic fired %d times, want 5", count)
	}
}

func TestEveryRunsImmediately(t *testing.T) {
	e := New(1)
	var first float64 = -1
	e.At(7, func() {
		e.Every(10, func() bool {
			if first < 0 {
				first = e.Now()
			}
			return false
		})
	})
	e.Run(100)
	if first != 7 {
		t.Errorf("Every first fire at %v, want immediately at 7", first)
	}
}

func TestEveryCancel(t *testing.T) {
	e := New(1)
	count := 0
	tm := e.Every(10, func() bool { count++; return true })
	e.At(35, func() { tm.Cancel() })
	e.Run(1000)
	// Fires at 0, 10, 20, 30; the pending occurrence at 40 is
	// canceled.
	if count != 4 {
		t.Errorf("periodic fired %d times, want 4", count)
	}
}

// TestEveryOrderAmongSimultaneousEvents pins where a re-armed tick
// queues: behind everything its own fn scheduled for the next tick's
// instant (the tick takes its sequence number after fn returns), ahead
// of whatever is scheduled for that instant later.
func TestEveryOrderAmongSimultaneousEvents(t *testing.T) {
	e := New(1)
	var order []string
	ticks := 0
	e.Every(10, func() bool {
		ticks++
		order = append(order, fmt.Sprintf("tick%d", ticks))
		if ticks == 1 {
			e.At(10, func() { order = append(order, "from-fn") })
		}
		return ticks < 3
	})
	e.At(5, func() { e.At(10, func() { order = append(order, "late") }) })
	e.Run(100)
	want := "tick1 from-fn tick2 late tick3"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
}

// TestEveryCancelFromInsideFn: the Timer cancels the *pending*
// occurrence, and while fn runs there is none — the series goes on,
// and a later Cancel from outside still stops it.
func TestEveryCancelFromInsideFn(t *testing.T) {
	e := New(1)
	count := 0
	var tm *Timer
	tm = e.Every(10, func() bool {
		count++
		if count == 2 {
			tm.Cancel()
		}
		return true
	})
	e.Run(45)
	if count != 5 {
		t.Errorf("fired %d times by t=45, want 5 (a Cancel inside fn is a no-op)", count)
	}
	tm.Cancel()
	e.Run(1000)
	if count != 5 {
		t.Errorf("fired %d times after an outside Cancel, want 5", count)
	}
}

// TestEveryCountsAndAllocations: a series is one live event between
// ticks, each tick is one processed event, and re-arming allocates
// nothing.
func TestEveryCountsAndAllocations(t *testing.T) {
	e := New(1)
	tm := e.Every(10, func() bool { return true })
	e.At(25, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	e.Run(35)
	// Ticks at 0, 10, 20, 30 and the one-shot.
	if e.Processed != 5 || e.Pending() != 1 {
		t.Errorf("Processed = %d, Pending = %d; want 5, 1", e.Processed, e.Pending())
	}
	if allocs := testing.AllocsPerRun(100, func() { e.Step() }); allocs != 0 {
		t.Errorf("a tick allocates %.0f times", allocs)
	}
	tm.Cancel()
	if e.Pending() != 0 {
		t.Errorf("Pending after Cancel = %d, want 0", e.Pending())
	}
	if e.Step() {
		t.Error("a canceled series must not fire")
	}
}

func TestRNGDeterminism(t *testing.T) {
	e1, e2 := New(42), New(42)
	for i := 0; i < 100; i++ {
		if e1.RNG("weather").Float64() != e2.RNG("weather").Float64() {
			t.Fatal("same seed+name must give the same stream")
		}
	}
	// Distinct names must give distinct streams.
	same := 0
	for i := 0; i < 100; i++ {
		if e1.RNG("a").Float64() == e1.RNG("b").Float64() {
			same++
		}
	}
	if same > 5 {
		t.Error("streams 'a' and 'b' look identical")
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	e1, e2 := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if e1.RNG("x").Float64() == e2.RNG("x").Float64() {
			same++
		}
	}
	if same > 5 {
		t.Error("different master seeds should give different streams")
	}
}

func TestStep(t *testing.T) {
	e := New(1)
	n := 0
	e.At(1, func() { n++ })
	e.At(2, func() { n++ })
	if !e.Step() || e.Now() != 1 || n != 1 {
		t.Error("first step wrong")
	}
	if !e.Step() || e.Now() != 2 || n != 2 {
		t.Error("second step wrong")
	}
	if e.Step() {
		t.Error("empty queue should return false")
	}
}

func TestPending(t *testing.T) {
	e := New(1)
	t1 := e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	t1.Cancel()
	if e.Pending() != 1 {
		t.Errorf("Pending after cancel = %d, want 1", e.Pending())
	}
}

func TestProcessedCount(t *testing.T) {
	e := New(1)
	for i := 0; i < 10; i++ {
		e.At(float64(i), func() {})
	}
	e.Run(100)
	if e.Processed != 10 {
		t.Errorf("Processed = %d, want 10", e.Processed)
	}
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("scheduling a nil function must panic")
		}
	}()
	New(1).At(1, nil)
}

func TestNonPositiveIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every(0) must panic")
		}
	}()
	New(1).Every(0, func() bool { return false })
}

func BenchmarkScheduleAndRun(b *testing.B) {
	e := New(1)
	for i := 0; i < b.N; i++ {
		e.After(float64(i%1000), func() {})
		if i%1000 == 999 {
			e.Run(e.Now() + 1000)
		}
	}
}
