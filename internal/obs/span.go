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
	// inline backs the first attributes, as many as an enact span has.
	inline [5]Attr
}

// Tracer brackets solve cycles. It retains the last cap root spans
// (cycles) and mirrors span completions into the flight recorder. A
// nil or disabled tracer returns nil spans, and every *Span method is
// nil-safe, so call sites need no guards. The spans of an evicted
// cycle are reused, with their attribute and child storage.
type Tracer struct {
	now     func() float64
	cap     int
	rec     *Recorder
	enabled bool
	cycles  []*Span
	// live counts the spans of the retained cycles; free holds spans
	// for reuse, about two average cycles' worth at most.
	live int
	free []*Span
}

// span takes a span off the free list, or makes one.
func (t *Tracer) span(name string, start float64) *Span {
	var s *Span
	if n := len(t.free); n > 0 {
		s, t.free = t.free[n-1], t.free[:n-1]
	} else {
		s = &Span{tr: t}
	}
	t.live++
	s.Name, s.Start, s.End = name, start, -1
	return s
}

// recycle frees an evicted cycle's spans. Nothing outside the tracer
// holds them: Trees hands out copies.
func (t *Tracer) recycle(s *Span) {
	for _, c := range s.Children {
		t.recycle(c)
	}
	clear(s.Attrs)
	clear(s.Children)
	s.Attrs, s.Children = s.Attrs[:0], s.Children[:0]
	t.free = append(t.free, s)
	t.live--
}

// StartCycle opens a new root span, evicting the oldest retained
// cycle beyond the cap. Returns nil when tracing is off.
func (t *Tracer) StartCycle(name string) *Span {
	if t == nil || !t.enabled {
		return nil
	}
	if len(t.cycles) >= t.cap {
		t.recycle(t.cycles[0])
		n := copy(t.cycles, t.cycles[1:])
		t.cycles = t.cycles[:n]
		// A burst's spans go back to the garbage collector once its
		// cycle is evicted, so spares never outgrow the cycles kept.
		if keep := 2 * t.live / max(n, 1); len(t.free) > keep {
			clear(t.free[keep:])
			t.free = t.free[:keep]
		}
	}
	s := t.span(name, t.now())
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

// Trees returns copies of the retained root spans, oldest first. The
// copies are the caller's, detached from the tracer: nothing it does
// later changes them, and they take no new spans.
func (t *Tracer) Trees() []*Span {
	if t == nil || len(t.cycles) == 0 {
		return nil
	}
	out := make([]*Span, len(t.cycles))
	for i, s := range t.cycles {
		out[i] = s.clone()
	}
	return out
}

// clone deep-copies the wire form of s and its subtree.
func (s *Span) clone() *Span {
	c := &Span{Name: s.Name, Start: s.Start, End: s.End}
	if len(s.Attrs) > 0 {
		c.Attrs = append([]Attr(nil), s.Attrs...)
	}
	for _, ch := range s.Children {
		c.Children = append(c.Children, ch.clone())
	}
	return c
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
	c := s.tr.span(name, start)
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

// SetAttr annotates the span. The first attributes go inline.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = s.inline[:0]
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
