package stats

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestQuantileBasics(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Median(); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := s.Quantile(0.9); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
}

func TestQuantileEmpty(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Mean()) {
		t.Error("empty sample must report NaN")
	}
}

func TestQuantileSingleSample(t *testing.T) {
	var s Sample
	s.Add(42)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 42 {
			t.Errorf("Quantile(%v) on single sample = %v, want 42", q, got)
		}
	}
	if got := s.Min(); got != 42 {
		t.Errorf("Min = %v, want 42", got)
	}
	if got := s.Max(); got != 42 {
		t.Errorf("Max = %v, want 42", got)
	}
}

func TestQuantileDuplicateValues(t *testing.T) {
	// Nearest-rank over an all-equal sample must return that value at
	// every q, and a heavily tied sample must return a tied value at
	// quantiles inside the tie run.
	var s Sample
	for i := 0; i < 10; i++ {
		s.Add(7)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if got := s.Quantile(q); got != 7 {
			t.Errorf("all-equal Quantile(%v) = %v, want 7", q, got)
		}
	}
	var m Sample
	m.AddAll([]float64{1, 5, 5, 5, 5, 5, 5, 5, 5, 9})
	if got := m.Median(); got != 5 {
		t.Errorf("tied median = %v, want 5", got)
	}
	if got := m.Quantile(0.2); got != 5 {
		t.Errorf("Quantile(0.2) = %v, want 5 (inside tie run)", got)
	}
	if got := m.Quantile(0.05); got != 1 {
		t.Errorf("Quantile(0.05) = %v, want 1", got)
	}
	if got := m.Quantile(1); got != 9 {
		t.Errorf("Quantile(1) = %v, want 9", got)
	}
}

func TestQuantileOutOfRangeQ(t *testing.T) {
	var s Sample
	s.AddAll([]float64{3, 1, 2})
	if got := s.Quantile(-0.5); got != 1 {
		t.Errorf("Quantile(-0.5) = %v, want min", got)
	}
	if got := s.Quantile(1.5); got != 3 {
		t.Errorf("Quantile(1.5) = %v, want max", got)
	}
}

func TestCDFEdgeCases(t *testing.T) {
	// Empty sample and degenerate n both yield nil — the plotting
	// layer treats that as "no series", never a zero-length axis.
	var empty Sample
	if got := empty.CDF(10); got != nil {
		t.Errorf("empty CDF = %v, want nil", got)
	}
	var s Sample
	s.Add(1)
	if got := s.CDF(1); got != nil {
		t.Errorf("CDF(n=1) = %v, want nil", got)
	}
	if got := s.CDF(0); got != nil {
		t.Errorf("CDF(n=0) = %v, want nil", got)
	}
	// Single observation: every point carries the same X and P spans [0,1].
	cdf := s.CDF(5)
	if len(cdf) != 5 {
		t.Fatalf("len = %d, want 5", len(cdf))
	}
	for _, p := range cdf {
		if p.X != 1 {
			t.Errorf("single-sample CDF X = %v, want 1", p.X)
		}
	}
	if cdf[0].P != 0 || cdf[4].P != 1 {
		t.Error("CDF must span [0,1]")
	}
	// Duplicates: X stays monotone (non-decreasing) through tie runs.
	var d Sample
	d.AddAll([]float64{2, 2, 2, 2, 8})
	pts := d.CDF(6)
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X {
			t.Errorf("CDF X not monotone at %d: %v < %v", i, pts[i].X, pts[i-1].X)
		}
	}
}

func TestFracBelowEmpty(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.FracBelow(1)) {
		t.Error("empty FracBelow must be NaN")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, q1, q2 float64) bool {
		if len(xs) == 0 {
			return true
		}
		var s Sample
		for _, x := range xs {
			if math.IsNaN(x) {
				return true
			}
			s.Add(x)
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return s.Quantile(q1) <= s.Quantile(q2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	var s Sample
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := s.Mean(); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
}

func TestFracBelow(t *testing.T) {
	var s Sample
	s.AddAll([]float64{1, 2, 3, 4, 5})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.2}, {3, 0.6}, {5, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := s.FracBelow(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("FracBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestCDFShape(t *testing.T) {
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Add(float64(i))
	}
	cdf := s.CDF(11)
	if len(cdf) != 11 {
		t.Fatalf("len = %d", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].P <= cdf[i-1].P || cdf[i].X < cdf[i-1].X {
			t.Error("CDF must be monotone in both coordinates")
		}
	}
	if cdf[0].P != 0 || cdf[len(cdf)-1].P != 1 {
		t.Error("CDF must span [0,1]")
	}
}

func TestHistogram(t *testing.T) {
	var s Sample
	s.AddAll([]float64{-5, 0.5, 1.5, 1.6, 9.5, 20})
	centers, counts := s.Histogram(0, 10, 10)
	if len(centers) != 10 || len(counts) != 10 {
		t.Fatal("bad bin count")
	}
	if counts[0] != 2 { // -5 clamps in, 0.5 lands in bin 0
		t.Errorf("bin 0 = %d, want 2", counts[0])
	}
	if counts[1] != 2 { // 1.5, 1.6
		t.Errorf("bin 1 = %d, want 2", counts[1])
	}
	if counts[9] != 2 { // 9.5 in, 20 clamps in
		t.Errorf("bin 9 = %d, want 2", counts[9])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != s.N() {
		t.Error("histogram must conserve observations")
	}
}

func TestFmtDuration(t *testing.T) {
	cases := []struct {
		s    float64
		want string
	}{
		{23, "23s"},
		{87, "1m27s"},
		{890, "14m50s"},
		{math.NaN(), "n/a"},
	}
	for _, c := range cases {
		if got := FmtDuration(c.s); got != c.want {
			t.Errorf("FmtDuration(%v) = %q, want %q", c.s, got, c.want)
		}
	}
}

// TestCounter counts three labels first seen in descending order: a map
// walk over so few entries never yields them ascending, so Labels
// without its sort fails here on every run.
func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("withdrawn")
	c.Inc("withdrawn")
	c.Inc("rf-fade")
	c.Inc("crash")
	if c.Get("withdrawn") != 2 || c.Total() != 4 {
		t.Error("counts wrong")
	}
	if labels := fmt.Sprint(c.Labels()); labels != "[crash rf-fade withdrawn]" {
		t.Errorf("labels = %v", labels)
	}
}

func TestSummaryString(t *testing.T) {
	var s Sample
	if s.Summary() != "n=0" {
		t.Error("empty summary")
	}
	s.AddAll([]float64{1, 2, 3})
	if got := s.Summary(); got == "" || got == "n=0" {
		t.Errorf("summary = %q", got)
	}
}

func BenchmarkQuantile(b *testing.B) {
	var s Sample
	for i := 0; i < 100000; i++ {
		s.Add(float64(i % 977))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Quantile(0.99)
	}
}
