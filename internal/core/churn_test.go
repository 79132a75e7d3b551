package core

import (
	"testing"

	"minkowski/internal/explain"
	"minkowski/internal/radio"
)

// TestChurnSamplerLeavesLastPlanAlone: the churn sampler asks the solve
// cycle's evaluator for a lead-0 graph every minute, which overwrites
// the graph the last plan was solved from. The plan holds its reports by
// value, so it — and what explain.WhyNot says of it — reads the same
// right after its cycle and 119 s (one more sample) later.
func TestChurnSamplerLeavesLastPlanAlone(t *testing.T) {
	cfg := fastConfig(3)
	cfg.SolveIntervalS = 120
	cfg.ChurnSampling = true
	c := New(cfg)
	const cycleAt = 3600 // a multiple of the solve interval
	c.Run(cycleAt + 0.5)
	plan := c.LastPlan()
	if plan == nil || len(plan.Links) < 2 {
		t.Fatalf("want a plan with links after %d s, got %+v", cycleAt, plan)
	}
	whyNots := func() []string {
		var out []string
		for i, l := range plan.Links {
			next := plan.Links[(i+1)%len(plan.Links)]
			out = append(out,
				explain.WhyNot(c.Evaluator, plan, l.Report.XA, l.Report.XB),
				explain.WhyNot(c.Evaluator, plan, l.Report.XA, next.Report.XB))
		}
		return out
	}
	check := func(when string) {
		for _, l := range plan.Links {
			r := l.Report
			if r.Lead != cfg.PredictiveLeadS || r.ID != radio.MakeLinkID(r.XA.ID, r.XB.ID) {
				t.Errorf("%s: plan report %v (lead %v, %s-%s) is not the one the solve cycle chose at lead %v",
					when, r.ID, r.Lead, r.XA.ID, r.XB.ID, cfg.PredictiveLeadS)
			}
		}
	}
	check("right after the cycle")
	fp, why := plan.Fingerprint(), whyNots()
	samples := c.Churn.TotalMinutes
	c.Run(cycleAt + 119)
	if c.LastPlan() != plan {
		t.Fatal("a solve cycle ran inside the window")
	}
	if c.Churn.TotalMinutes != samples+1 {
		t.Fatalf("want one churn sample inside the window, got %d", c.Churn.TotalMinutes-samples)
	}
	check("119 s later")
	if got := plan.Fingerprint(); got != fp {
		t.Errorf("LastPlan changed under the churn sampler:\n%s\nwas:\n%s", got, fp)
	}
	for i, got := range whyNots() {
		if got != why[i] {
			t.Errorf("WhyNot answer %d changed: %q, was %q", i, got, why[i])
		}
	}
}
