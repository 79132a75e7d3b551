package obs

import (
	"bytes"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	clock := 10.0
	r := NewRegistry(func() float64 { return clock })

	c := r.Counter("solve.runs")
	c.Inc()
	c.Inc()
	c.Inc()
	if got := c.Count(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if c2 := r.Counter("solve.runs"); c2.Count() != 3 {
		t.Fatalf("re-registration did not return the same slot")
	}

	g := r.Gauge("lease.epoch")
	g.Set(4)
	g.Set(7)
	if g.m.value != 7 {
		t.Fatalf("gauge = %v, want 7", g.m.value)
	}

	h := r.Histogram("ack.latency_s", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if s.At != 10 {
		t.Fatalf("snapshot At = %v, want sim clock 10", s.At)
	}
	var hs *MetricSnap
	for i := range s.Metrics {
		if s.Metrics[i].Name == "ack.latency_s" {
			hs = &s.Metrics[i]
		}
	}
	if hs == nil {
		t.Fatal("histogram missing from snapshot")
	}
	// Bounds are inclusive upper edges: 0.5 and 1 land in bucket 0.
	want := []uint64{2, 1, 1, 1}
	if len(hs.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", hs.Buckets, want)
	}
	for i, b := range want {
		if hs.Buckets[i] != b {
			t.Fatalf("buckets = %v, want %v", hs.Buckets, want)
		}
	}
	if hs.Count != 5 || hs.Sum != 556.5 {
		t.Fatalf("count/sum = %d/%v, want 5/556.5", hs.Count, hs.Sum)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry(func() float64 { return 0 })
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("x")
}

func TestGaugeFuncEvaluatedAtSnapshot(t *testing.T) {
	r := NewRegistry(func() float64 { return 0 })
	v := 1.0
	r.GaugeFunc("mirror", func() float64 { return v })
	v = 42
	s := r.Snapshot()
	if len(s.Metrics) != 1 || s.Metrics[0].Value != 42 {
		t.Fatalf("snapshot = %+v, want mirror=42", s.Metrics)
	}
}

func TestZeroHandlesAreNoOps(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	c.Inc()
	g.Set(1)
	h.Observe(1)
	if c.Count() != 0 {
		t.Fatal("a zero counter must read as zero")
	}
	var r *Registry
	r.Counter("a").Inc()
	r.GaugeFunc("b", nil)
	if s := r.Snapshot(); len(s.Metrics) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestSnapshotSortedAndStable(t *testing.T) {
	r := NewRegistry(func() float64 { return 5 })
	r.Counter("zeta").Inc()
	r.Gauge("alpha").Set(1.5)
	r.Histogram("mid", []float64{1}).Observe(2)

	s := r.Snapshot()
	for i := 1; i < len(s.Metrics); i++ {
		if s.Metrics[i-1].Name > s.Metrics[i].Name {
			t.Fatalf("snapshot not sorted: %q > %q", s.Metrics[i-1].Name, s.Metrics[i].Name)
		}
	}
	b1, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d, err := decodeSnapshot(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("encode/decode/encode not byte-stable:\n%s\nvs\n%s", b1, b2)
	}
	// Two snapshots of the same registry state are byte-identical.
	b3, err := r.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatal("same-state snapshots differ")
	}
}
