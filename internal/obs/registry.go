package obs

import (
	"encoding/json"
	"sort"
)

// metricKind discriminates registry slots. String forms appear in the
// snapshot schema and are part of the stable format.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// metric is one registry slot. Handles hold a direct pointer so the
// hot-path record is a single field update with no name lookup.
type metric struct {
	name    string
	kind    metricKind
	count   uint64         // counter
	value   float64        // gauge
	fn      func() float64 // gauge mirror, evaluated at snapshot time
	bounds  []float64      // histogram upper bounds (inclusive), ascending
	buckets []uint64       // len(bounds)+1; last is overflow
	sum     float64        // histogram sum of observations
}

// Registry interns named metrics to slots once at registration; all
// recording after that is pointer-direct. It is intentionally
// lock-free: the determinism contract (package doc) restricts all
// recording to the single-threaded sim event loop.
type Registry struct {
	now     func() float64
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry builds an empty registry reading time from now.
func NewRegistry(now func() float64) *Registry {
	return &Registry{now: now, byName: make(map[string]*metric)}
}

func (r *Registry) intern(name string, kind metricKind) *metric {
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic("obs: metric " + name + " re-registered as " + kind.String() + ", was " + m.kind.String())
		}
		return m
	}
	m := &metric{name: name, kind: kind}
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	return m
}

// Counter returns the handle for a monotonically increasing counter,
// creating it on first use. Registering the same name twice returns
// the same slot; registering it as a different kind panics.
func (r *Registry) Counter(name string) Counter {
	if r == nil {
		return Counter{}
	}
	return Counter{m: r.intern(name, kindCounter)}
}

// Gauge returns the handle for a last-value-wins gauge.
func (r *Registry) Gauge(name string) Gauge {
	if r == nil {
		return Gauge{}
	}
	return Gauge{m: r.intern(name, kindGauge)}
}

// GaugeFunc registers a gauge whose value is read from fn at snapshot
// time. This mirrors counters whose authoritative storage lives
// elsewhere (cdpi per-agent sums, satcom queues, journal audits) into
// the snapshot with zero hot-path cost. fn runs on the sim loop
// during Snapshot and must be deterministic.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.intern(name, kindGauge).fn = fn
}

// Histogram returns the handle for a fixed-bucket histogram. bounds
// are ascending inclusive upper edges; observations above the last
// bound land in an overflow bucket. bounds are captured once at
// first registration.
func (r *Registry) Histogram(name string, bounds []float64) Histogram {
	if r == nil {
		return Histogram{}
	}
	m := r.intern(name, kindHistogram)
	if m.buckets == nil {
		m.bounds = append([]float64(nil), bounds...)
		m.buckets = make([]uint64, len(bounds)+1)
	}
	return Histogram{m: m}
}

// Counter is a typed handle; the zero value is a safe no-op.
type Counter struct{ m *metric }

// Inc adds one.
func (c Counter) Inc() {
	if c.m != nil {
		c.m.count++
	}
}

// Count reads the current value.
func (c Counter) Count() uint64 {
	if c.m == nil {
		return 0
	}
	return c.m.count
}

// Gauge is a typed handle; the zero value is a safe no-op.
type Gauge struct{ m *metric }

// Set records the latest value.
func (g Gauge) Set(v float64) {
	if g.m != nil {
		g.m.value = v
	}
}

// Histogram is a typed handle; the zero value is a safe no-op.
type Histogram struct{ m *metric }

// Observe records v into its bucket. The bucket scan is linear over a
// handful of fixed edges — no allocation, no boxing.
func (h Histogram) Observe(v float64) {
	if h.m == nil {
		return
	}
	i := 0
	for i < len(h.m.bounds) && v > h.m.bounds[i] {
		i++
	}
	h.m.buckets[i]++
	h.m.sum += v
	h.m.count++
}

// MetricSnap is one metric in the stable snapshot schema.
type MetricSnap struct {
	Name    string    `json:"name"`
	Kind    string    `json:"kind"`
	Count   uint64    `json:"count,omitempty"`
	Value   float64   `json:"value,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
}

// Snapshot is the exported state of a registry at one sim instant.
// Metrics are sorted by name; the canonical byte form is Encode.
type Snapshot struct {
	At      float64      `json:"at"`
	Metrics []MetricSnap `json:"metrics"`
}

// Snapshot exports every registered metric, name-sorted, stamped with
// the sim clock. Func-backed gauges are evaluated here.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	if r.now != nil {
		s.At = r.now()
	}
	s.Metrics = make([]MetricSnap, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms := MetricSnap{Name: m.name, Kind: m.kind.String()}
		switch m.kind {
		case kindCounter:
			ms.Count = m.count
		case kindGauge:
			ms.Value = m.value
			if m.fn != nil {
				ms.Value = m.fn()
			}
		case kindHistogram:
			ms.Count = m.count
			ms.Sum = m.sum
			ms.Bounds = append([]float64(nil), m.bounds...)
			ms.Buckets = append([]uint64(nil), m.buckets...)
		}
		s.Metrics = append(s.Metrics, ms)
	}
	sortSnaps(s.Metrics)
	return s
}

func sortSnaps(ms []MetricSnap) {
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
}

// Encode renders the canonical byte form: metrics name-sorted, indented
// JSON. Byte-identical across same-seed runs; decoding the JSON and
// encoding again is the identity on canonical bytes (fuzzed by
// FuzzSnapshotRoundTrip).
func (s Snapshot) Encode() ([]byte, error) {
	c := s
	c.Metrics = append([]MetricSnap(nil), s.Metrics...)
	sortSnaps(c.Metrics)
	return json.MarshalIndent(c, "", "  ")
}
