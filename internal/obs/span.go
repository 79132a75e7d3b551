package obs

import "strconv"

// Attr is one key/value annotation on a span. Values are
// pre-formatted strings (strconv, never fmt), like the flight
// recorder's details, whose push allocates nothing
// (TestRecorderEventDoesNotAllocate).
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one node of a solve-cycle trace tree. Exported fields are
// the deterministic wire form; timestamps are sim-seconds.
type Span struct {
	Name     string  `json:"name"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	Children []*Span `json:"children,omitempty"`

	tr *Tracer
}

// Tracer brackets solve cycles. It retains the last cap root spans
// (cycles) and mirrors span completions into the flight recorder. A
// nil or disabled tracer returns nil spans, and every *Span method is
// nil-safe, so call sites need no guards.
type Tracer struct {
	now     func() float64
	cap     int
	rec     *Recorder
	enabled bool
	cycles  []*Span
}

// StartCycle opens a new root span, evicting the oldest retained
// cycle beyond the cap. Returns nil when tracing is off.
func (t *Tracer) StartCycle(name string) *Span {
	if t == nil || !t.enabled {
		return nil
	}
	s := &Span{Name: name, Start: t.now(), End: -1, tr: t}
	if len(t.cycles) >= t.cap {
		n := copy(t.cycles, t.cycles[1:])
		t.cycles = t.cycles[:n]
	}
	t.cycles = append(t.cycles, s)
	return s
}

// Current returns the most recently started root span (ended or not).
// Late completions — e.g. an enactment acked cycles after its
// dispatch — attach here; attribution is "the cycle open at
// completion time", which is deterministic because completions run on
// the sim loop.
func (t *Tracer) Current() *Span {
	if t == nil || len(t.cycles) == 0 {
		return nil
	}
	return t.cycles[len(t.cycles)-1]
}

// Trees returns the retained root spans, oldest first.
func (t *Tracer) Trees() []*Span {
	if t == nil {
		return nil
	}
	return append([]*Span(nil), t.cycles...)
}

// Child opens a sub-span starting now.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.ChildAt(name, s.tr.now())
}

// ChildAt opens a sub-span with an explicit start time (used to
// back-date enact spans to their dispatch instant).
func (s *Span) ChildAt(name string, start float64) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Start: start, End: -1, tr: s.tr}
	s.Children = append(s.Children, c)
	return c
}

// EndSpan closes the span at the current sim time and mirrors a
// completion record into the flight recorder.
func (s *Span) EndSpan() {
	if s == nil {
		return
	}
	s.End = s.tr.now()
	s.tr.rec.spanDone(s)
}

// SetAttr annotates the span. The attrs slice is grown with explicit
// capacity so repeated annotation does not churn allocations.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make([]Attr, 0, 4)
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// SetAttrInt annotates with an integer value.
func (s *Span) SetAttrInt(key string, v int) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.Itoa(v))
}

// SetAttrFloat annotates with a float value (shortest round-trip
// form, matching the snapshot number format).
func (s *Span) SetAttrFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatFloat(v, 'g', -1, 64))
}

// SetAttrBool annotates with "true"/"false".
func (s *Span) SetAttrBool(key string, v bool) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatBool(v))
}
