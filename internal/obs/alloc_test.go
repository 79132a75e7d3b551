//go:build !race

package obs

import "testing"

// TestMetricUpdatesDoNotAllocate: a counter, gauge or histogram update
// is a field write through an interned handle, so the controller can
// record on every event without a heap object per record.
func TestMetricUpdatesDoNotAllocate(t *testing.T) {
	r := NewRegistry(func() float64 { return 0 })
	c, g := r.Counter("c"), r.Gauge("g")
	h := r.Histogram("h", []float64{1, 10, 100})
	v := 0.0
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Gauge.Set", func() { v++; g.Set(v) }},
		{"Histogram.Observe", func() { v += 7; h.Observe(v) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.0f times per call, want 0", tc.name, allocs)
		}
	}
	if c.Count() == 0 || g.m.value == 0 {
		t.Error("no update recorded")
	}
}

// TestRecorderEventDoesNotAllocate: after the ring's one backing array
// is made by the first record, an event costs no heap object, whether
// it appends into the growing ring or overwrites the oldest slot of a
// full one.
func TestRecorderEventDoesNotAllocate(t *testing.T) {
	const capacity = 512
	rec := New(Config{Enabled: true, FlightCap: capacity}, func() float64 { return 0 }).Rec
	rec.Event("first", "")
	if allocs := testing.AllocsPerRun(100, func() { rec.Event("tick", "filling") }); allocs != 0 {
		t.Errorf("Event into a filling ring allocates %.0f times per call, want 0", allocs)
	}
	if rec.full {
		t.Fatal("ring filled before the first measurement ended")
	}
	for !rec.full {
		rec.Event("tick", "")
	}
	if allocs := testing.AllocsPerRun(100, func() { rec.Event("tick", "full") }); allocs != 0 {
		t.Errorf("Event into a full ring allocates %.0f times per call, want 0", allocs)
	}
	if rec.evicted == 0 {
		t.Fatal("the full ring evicted nothing")
	}
}
