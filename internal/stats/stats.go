// Package stats provides the small statistical toolkit the
// evaluation harness uses to regenerate the paper's figures:
// quantiles, empirical CDFs, histograms, and formatting helpers.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample is a growing collection of float64 observations.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddAll appends many observations.
func (s *Sample) AddAll(xs []float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// N returns the observation count.
func (s *Sample) N() int { return len(s.xs) }

// sort ensures ascending order.
func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-th (0..1) empirical quantile using nearest-
// rank; NaN on an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	i := int(math.Ceil(q*float64(len(s.xs)))) - 1
	if i < 0 {
		i = 0
	}
	return s.xs[i]
}

// Median is Quantile(0.5).
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the arithmetic mean (NaN when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Min and Max return the extremes (NaN when empty).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[0]
}

// Max returns the largest observation.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// FracBelow returns the fraction of observations ≤ x.
func (s *Sample) FracBelow(x float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	i := sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(s.xs))
}

// CDFPoint is one (x, P[X ≤ x]) pair.
type CDFPoint struct {
	X float64
	P float64
}

// CDF returns n evenly probability-spaced points of the empirical
// CDF, suitable for plotting the paper's CDF figures.
func (s *Sample) CDF(n int) []CDFPoint {
	if len(s.xs) == 0 || n < 2 {
		return nil
	}
	s.sort()
	out := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		p := float64(i) / float64(n-1)
		out = append(out, CDFPoint{X: s.Quantile(p), P: p})
	}
	return out
}

// Histogram bins observations into equal-width bins over [lo, hi];
// out-of-range values clamp to the edge bins. Returns bin centers and
// counts.
func (s *Sample) Histogram(lo, hi float64, bins int) (centers []float64, counts []int) {
	if bins < 1 || hi <= lo {
		return nil, nil
	}
	centers = make([]float64, bins)
	counts = make([]int, bins)
	w := (hi - lo) / float64(bins)
	for i := range centers {
		centers[i] = lo + w*(float64(i)+0.5)
	}
	for _, x := range s.xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	return centers, counts
}

// Values returns a copy of the raw observations.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Summary formats the canonical quantile row used in EXPERIMENTS.md.
func (s *Sample) Summary() string {
	if s.N() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%.3g p50=%.3g p90=%.3g p99=%.3g max=%.3g mean=%.3g",
		s.N(), s.Min(), s.Median(), s.Quantile(0.9), s.Quantile(0.99), s.Max(), s.Mean())
}

// FmtDuration renders seconds the way the paper does ("1m27s",
// "14m50s", "23s").
func FmtDuration(seconds float64) string {
	if math.IsNaN(seconds) {
		return "n/a"
	}
	d := time.Duration(seconds * float64(time.Second)).Round(time.Second)
	return d.String()
}

// Counter is a labelled tally.
type Counter struct {
	counts map[string]int
	total  int
}

// NewCounter creates an empty counter.
func NewCounter() *Counter { return &Counter{counts: map[string]int{}} }

// Inc adds one to a label.
func (c *Counter) Inc(label string) {
	c.counts[label]++
	c.total++
}

// Get returns a label's count.
func (c *Counter) Get(label string) int { return c.counts[label] }

// Total returns the sum of all labels.
func (c *Counter) Total() int { return c.total }

// Labels returns all labels, sorted.
func (c *Counter) Labels() []string {
	out := make([]string, 0, len(c.counts))
	for l := range c.counts {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
