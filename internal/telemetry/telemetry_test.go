package telemetry

import (
	"math"
	"testing"

	"minkowski/internal/flight"
	"minkowski/internal/geo"
	"minkowski/internal/linkeval"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
)

func TestReachabilityRatios(t *testing.T) {
	r := NewReachability(3600)
	// Node up for 600 s, down for 400 s: ratio 0.6.
	for i := 0; i <= 10; i++ {
		r.Observe(float64(i*100), 0, LayerLink, i < 6)
	}
	got := r.Ratio(LayerLink)
	if math.Abs(got-0.6) > 0.01 {
		t.Errorf("ratio = %v, want 0.6", got)
	}
}

func TestReachabilityIgnoresDarkGaps(t *testing.T) {
	r := NewReachability(3600)
	r.Observe(0, 0, LayerLink, true)
	r.Observe(100, 0, LayerLink, true)
	// Gap of 2 h (node dark at night) must not count as potential
	// time.
	r.Observe(7300, 0, LayerLink, true)
	r.Observe(7400, 0, LayerLink, true)
	if got := r.Ratio(LayerLink); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("ratio with dark gap = %v, want 1.0", got)
	}
}

func TestReachabilitySeries(t *testing.T) {
	r := NewReachability(1000)
	// Period 0: always up; period 1: always down.
	for i := 0; i <= 20; i++ {
		r.Observe(float64(i*100), 0, LayerData, i < 10)
	}
	s := r.Series(LayerData)
	if len(s) < 2 {
		t.Fatalf("series = %v", s)
	}
	if s[0] < 0.9 || s[1] > 0.2 {
		t.Errorf("series = %v, want [~1, ~0]", s)
	}
}

// TestRatioSumsInPeriodOrder: the ratio of a tracker whose five
// periods hold non-integer seconds, which floating-point addition sums
// to different bits in different orders, is one bit pattern over 200
// identical builds. The node is dark through every other period.
func TestRatioSumsInPeriodOrder(t *testing.T) {
	patterns := map[uint64]bool{}
	for trial := 0; trial < 200; trial++ {
		r := NewReachability(1e5)
		for p := 0; p < 5; p++ {
			now := float64(2*p) * 1e5
			for k := 0; k < 4; k++ {
				r.Observe(now, 0, LayerControl, (p+k)%3 != 0)
				now += math.Pow(10, float64(p))/3 + float64(k)/10
			}
		}
		patterns[math.Float64bits(r.Ratio(LayerControl))] = true
	}
	if len(patterns) != 1 {
		t.Errorf("%d bit patterns of the same ratio over 200 builds, want 1", len(patterns))
	}
}

func mkLink(t *testing.T, b2g bool, established, ended float64, reason radio.Reason, attempt int) *radio.Link {
	t.Helper()
	b1 := &flight.Balloon{ID: "hbal-001", Pos: geo.LLADeg(-1, 37, 18000)}
	n1 := platform.NewBalloonNode(b1)
	var n2 *platform.Node
	if b2g {
		n2 = platform.NewGroundStation("gs-0", geo.LLADeg(-1, 36.5, 1600), nil)
	} else {
		b2 := &flight.Balloon{ID: "hbal-002", Pos: geo.LLADeg(-1, 38, 18000)}
		n2 = platform.NewBalloonNode(b2)
	}
	return &radio.Link{
		ID: radio.MakeLinkID(n1.Xcvrs[0].ID, n2.Xcvrs[0].ID),
		XA: n1.Xcvrs[0], XB: n2.Xcvrs[0],
		EstablishedAt: established, EndedAt: ended,
		EndReason: reason, Attempt: attempt,
	}
}

func TestLinkLifeStats(t *testing.T) {
	ll := NewLinkLife()
	// B2G: established 100→205 (105 s), failed.
	ll.RecordEnd(mkLink(t, true, 100, 205, radio.ReasonRFFade, 1))
	// B2B: established 100→1655 (1555 s), withdrawn.
	ll.RecordEnd(mkLink(t, false, 100, 1655, radio.ReasonWithdrawn, 2))
	if ll.B2G.N() != 1 || ll.B2B.N() != 1 {
		t.Fatal("samples not recorded")
	}
	if ll.B2G.Median() != 105 || ll.B2B.Median() != 1555 {
		t.Errorf("medians = %v, %v", ll.B2G.Median(), ll.B2B.Median())
	}
	overall, b2g, b2b := ll.UnexpectedEndFrac()
	if b2g != 1 || b2b != 0 || math.Abs(overall-0.5) > 1e-9 {
		t.Errorf("unexpected fracs = %v %v %v", overall, b2g, b2b)
	}
	if ll.AttemptsToSuccess.Mean() != 1.5 {
		t.Errorf("attempts mean = %v", ll.AttemptsToSuccess.Mean())
	}
}

func TestLinkLifeFirstAttemptAndNever(t *testing.T) {
	ll := NewLinkLife()
	// Pair A (B2B): first attempt fails, second succeeds.
	a1 := mkLink(t, false, 0, 50, radio.ReasonAcquireFailed, 1)
	ll.RecordEnd(a1)
	a2 := mkLink(t, false, 100, 400, radio.ReasonWithdrawn, 2)
	a2.ID = a1.ID
	ll.RecordEnd(a2)
	// Pair B (B2G, distinct ID): never succeeds.
	b1 := mkLink(t, true, 0, 50, radio.ReasonAcquireFailed, 1)
	ll.RecordEnd(b1)
	_, b2bRate := ll.FirstAttemptRate()
	if b2bRate != 0 {
		t.Errorf("pair A first attempt failed; rate = %v", b2bRate)
	}
	if got := ll.NeverSucceededFrac(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("never-succeeded = %v, want 0.5 (pair B of 2 pairs)", got)
	}
}

func TestModelErrorShift(t *testing.T) {
	var me ModelError
	for i := 0; i < 100; i++ {
		me.Record(-60, -64.3) // measured 4.3 dB stronger than modelled
	}
	if math.Abs(me.Errors.Median()-4.3) > 1e-9 {
		t.Errorf("median error = %v, want +4.3", me.Errors.Median())
	}
}

func TestRecoveryAttribution(t *testing.T) {
	rc := NewRecovery()
	// A withdrawal at t=100 breaks node n1 at t=105; recovers at 125.
	rc.LinkEvent(100, true)
	rc.ObserveNode(105, 0, false, 10)
	rc.ObserveNode(125, 0, true, 10)
	if rc.Withdrawn.N() != 1 || rc.Withdrawn.Median() != 20 {
		t.Errorf("withdrawn sample = %v", rc.Withdrawn.Values())
	}
	// A failure at t=200 breaks n2 at 202; recovers at 280 with a new
	// link (count goes 10 → 11).
	rc.LinkEvent(200, false)
	rc.ObserveNode(202, 1, false, 10)
	rc.ObserveNode(280, 1, true, 11)
	if rc.Failed.N() != 1 || rc.Failed.Median() != 78 {
		t.Errorf("failed sample = %v", rc.Failed.Values())
	}
	if rc.RecoveredWithNewLink != 1 || rc.RecoveredWithoutNewLink != 1 {
		t.Errorf("new-link counts = %d/%d", rc.RecoveredWithNewLink, rc.RecoveredWithoutNewLink)
	}
	imp := rc.MeanImprovement()
	if math.Abs(imp-(78.0-20.0)/78.0) > 1e-9 {
		t.Errorf("improvement = %v", imp)
	}
}

func TestRecoveryWindowExcludesSlow(t *testing.T) {
	rc := NewRecovery()
	rc.LinkEvent(0, false)
	rc.ObserveNode(1, 0, false, 5)
	rc.ObserveNode(1000, 0, true, 5) // 999 s > 300 s window
	if rc.Failed.N() != 0 {
		t.Error("slow recovery must not enter the <5 min distribution")
	}
}

func TestRecoveryUnknownCause(t *testing.T) {
	rc := NewRecovery()
	// No link events anywhere near the break.
	rc.ObserveNode(500, 0, false, 5)
	rc.ObserveNode(520, 0, true, 5)
	if rc.Unknown.N() != 1 {
		t.Error("break without nearby link events must be unknown-cause")
	}
}

func TestRecoveryRepeatedObservations(t *testing.T) {
	rc := NewRecovery()
	rc.LinkEvent(10, false)
	rc.ObserveNode(11, 0, false, 5)
	rc.ObserveNode(12, 0, false, 5) // still broken: no double count
	rc.ObserveNode(20, 0, true, 5)
	rc.ObserveNode(21, 0, true, 5) // still fine: no phantom break
	if rc.Failed.N() != 1 {
		t.Errorf("samples = %d", rc.Failed.N())
	}
}

func TestRedundancyZeroFrac(t *testing.T) {
	var rd Redundancy
	rd.Observe(0.7, 0.0)
	rd.Observe(0.7, 0.5)
	rd.Observe(0.7, 0.6)
	rd.Observe(0.7, 0.0)
	if got := rd.ZeroFrac(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("zero frac = %v, want 0.5", got)
	}
	if rd.Intended.Median() != 0.7 {
		t.Errorf("intended median = %v", rd.Intended.Median())
	}
}

func TestChurnCounters(t *testing.T) {
	var c Churn
	c.ObserveHour(linkeval.GraphDelta{Added: 5, Removed: 5, Common: 90})
	c.ObserveHour(linkeval.GraphDelta{Common: 100})
	if got := c.ChangedHourFrac(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("changed-hour frac = %v", got)
	}
	if got := c.HourlyFrac.Max(); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("hourly frac max = %v, want 0.1", got)
	}
	c.ObserveMinute(linkeval.GraphDelta{Added: 3, Common: 100})
	c.ObserveMinute(linkeval.GraphDelta{Common: 100})
	if got := c.StableMinuteFrac(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("stable-minute frac = %v", got)
	}
	if c.MinuteChanged.Max() != 3 {
		t.Errorf("minute churn max = %v", c.MinuteChanged.Max())
	}
}

func TestEmptyCollectorsNaN(t *testing.T) {
	r := NewReachability(3600)
	if !math.IsNaN(r.Ratio(LayerLink)) {
		t.Error("empty reachability must be NaN")
	}
	ll := NewLinkLife()
	if !math.IsNaN(ll.NeverSucceededFrac()) {
		t.Error("empty link-life must be NaN")
	}
	var c Churn
	if !math.IsNaN(c.ChangedHourFrac()) || !math.IsNaN(c.StableMinuteFrac()) {
		t.Error("empty churn must be NaN")
	}
	var rd Redundancy
	if !math.IsNaN(rd.ZeroFrac()) {
		t.Error("empty redundancy must be NaN")
	}
	rc := NewRecovery()
	if !math.IsNaN(rc.MeanImprovement()) {
		t.Error("empty recovery must be NaN")
	}
}
