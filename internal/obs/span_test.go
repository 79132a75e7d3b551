package obs

import (
	"encoding/json"
	"testing"
)

func newTestObs(enabled bool, clock *float64) *Obs {
	return New(Config{Enabled: enabled, CycleCap: 3}, func() float64 { return *clock })
}

func TestDisabledTracerIsInert(t *testing.T) {
	clock := 0.0
	o := newTestObs(false, &clock)
	s := o.Tracer.StartCycle("cycle")
	if s != nil {
		t.Fatal("disabled tracer must return nil spans")
	}
	// Every method must be nil-safe.
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 1)
	s.Child("c").EndSpan()
	s.ChildAt("c2", 1).EndSpan()
	s.EndSpan()
	if o.Tracer.Current() != nil || o.Tracer.Trees() != nil {
		t.Fatal("disabled tracer must expose no spans")
	}
	if o.Enabled() {
		t.Fatal("Enabled() must be false")
	}
}

func TestSpanTreeAndCycleEviction(t *testing.T) {
	clock := 0.0
	o := newTestObs(true, &clock)
	tr := o.Tracer

	for i := 0; i < 5; i++ {
		clock = float64(i * 10)
		s := tr.StartCycle("cycle")
		if tr.Current() != s {
			t.Fatal("Current must track the latest root")
		}
		clock += 1
		c := s.Child("evaluate")
		c.SetAttrInt("pairs", i)
		clock += 1
		c.EndSpan()
		clock += 1
		s.EndSpan()
	}
	trees := tr.Trees()
	if len(trees) != 3 {
		t.Fatalf("retained %d cycles, want cap 3", len(trees))
	}
	// Oldest retained root is cycle i=2 (started at t=20).
	if trees[0].Start != 20 || trees[2].Start != 40 {
		t.Fatalf("eviction order wrong: starts %v, %v", trees[0].Start, trees[2].Start)
	}
	root := trees[2]
	if len(root.Children) != 1 || root.Children[0].Name != "evaluate" {
		t.Fatalf("child tree wrong: %+v", root)
	}
	child := root.Children[0]
	if child.Start != 41 || child.End != 42 || root.End != 43 {
		t.Fatalf("span times wrong: child [%v,%v], root end %v", child.Start, child.End, root.End)
	}
	if len(child.Attrs) != 1 || child.Attrs[0].Key != "pairs" || child.Attrs[0].Value != "4" {
		t.Fatalf("attrs wrong: %+v", child.Attrs)
	}
}

func TestChildAtBackdatesStart(t *testing.T) {
	clock := 100.0
	o := newTestObs(true, &clock)
	s := o.Tracer.StartCycle("cycle")
	e := s.ChildAt("enact", 80)
	clock = 120
	e.EndSpan()
	if e.Start != 80 || e.End != 120 {
		t.Fatalf("enact span [%v,%v], want [80,120]", e.Start, e.End)
	}
}

func TestSpanCompletionFeedsRecorder(t *testing.T) {
	clock := 0.0
	o := newTestObs(true, &clock)
	s := o.Tracer.StartCycle("cycle")
	clock = 2.5
	s.EndSpan()
	d := o.Rec.Dump()
	if d == nil || len(d.Records) != 1 {
		t.Fatalf("dump = %+v, want one span record", d)
	}
	r := d.Records[0]
	if r.Kind != "span" || r.Name != "cycle" || r.Detail != "dur=2.5" || r.T != 2.5 {
		t.Fatalf("record = %+v", r)
	}
}

// TestTreesNeverChangeUnderCaller: the trees Trees returned stay as
// they were while the tracer evicts their cycles and reuses the spans.
func TestTreesNeverChangeUnderCaller(t *testing.T) {
	clock := 0.0
	o := newTestObs(true, &clock)
	cycle := func(i int) {
		clock += 10
		s := o.Tracer.StartCycle("cycle")
		s.SetAttrInt("n", i)
		c := s.ChildAt("enact", clock-5)
		c.SetAttr("kind", "drain")
		c.EndSpan()
		s.EndSpan()
	}
	for i := 0; i < 3; i++ {
		cycle(i)
	}
	trees := o.Tracer.Trees()
	before, err := json.Marshal(trees)
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 10; i++ {
		cycle(i)
	}
	after, _ := json.Marshal(trees)
	if string(before) != string(after) {
		t.Errorf("returned trees changed:\nbefore %s\nafter  %s", before, after)
	}
	if now, _ := json.Marshal(o.Tracer.Trees()); string(now) == string(before) {
		t.Error("the tracer's own trees did not move on")
	}
}
