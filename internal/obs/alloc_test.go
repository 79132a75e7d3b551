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

// TestEnactSpanDoesNotAllocate: with the recorder on, a warm solve
// cycle of enact spans — StartCycle, ChildAt on the open cycle, an
// enact span's attributes, EndSpan and its flight record — allocates
// nothing: it reuses the spans of the cycle it evicts, with their
// attribute and child storage.
func TestEnactSpanDoesNotAllocate(t *testing.T) {
	clock := 0.0
	o := New(Config{Enabled: true, CycleCap: 2, FlightCap: 64}, func() float64 { return clock })
	cycle := func() {
		clock += 60
		root := o.Tracer.StartCycle("solve-cycle")
		root.SetAttrInt("cycle", 7)
		for i := 0; i < 20; i++ {
			sp := o.Tracer.Current().ChildAt("enact", clock-30)
			sp.SetAttr("kind", "link-establish")
			sp.SetAttr("channel", "in-band")
			sp.SetAttrInt("attempts", 2)
			sp.SetAttrBool("ok", true)
			sp.SetAttrBool("inferred", true)
			sp.EndSpan()
		}
		root.EndSpan()
	}
	for c := 0; c < 3; c++ { // the third cycle evicts the first
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a cycle of enact spans allocates %.0f times, want 0", allocs)
	}
	d := o.Rec.Dump()
	if last := d.Records[len(d.Records)-2]; last.Kind != "span" || last.Name != "enact" || last.Detail != "dur=30" {
		t.Errorf("flight record %+v, want the last enact span with dur=30", last)
	}
}
