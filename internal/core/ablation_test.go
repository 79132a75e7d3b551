package core

import (
	"testing"

	"minkowski/internal/radio"
	"minkowski/internal/rf"
)

func TestWeatherSourceSelection(t *testing.T) {
	mk := func(sources string) int {
		cfg := fastConfig(11)
		cfg.WeatherSources = sources
		c := New(cfg)
		c.RunHours(0.1)
		return len(c.WxModel.Sources)
	}
	if n := mk("all"); n != 4 { // 3 gauges + climatology (no forecast yet at t=0... forecast issues at t=0 via Every)
		// The 12-hourly forecast loop runs immediately at t=0, so a
		// forecast may already be fused.
		if n != 5 {
			t.Errorf("all-sources count = %d, want 4 or 5", n)
		}
	}
	if n := mk("gauges"); n != 3 {
		t.Errorf("gauges-only count = %d, want 3", n)
	}
	if n := mk("itu"); n != 1 {
		t.Errorf("itu-only count = %d, want 1", n)
	}
	if n := mk("forecast"); n > 2 {
		t.Errorf("forecast-only count = %d, want ≤2", n)
	}
}

func TestTTEOverride(t *testing.T) {
	cfg := fastConfig(12)
	cfg.TTESatcomOverrideS = 42
	c := New(cfg)
	// A node that never heartbeated forces the satcom TTE.
	c.Frontend.Register(c.Fleet.IDs.Intern("ghost"), nil)
	got := c.Frontend.PickTTE([]string{"ghost"}) - c.Eng.Now()
	if got != 42 {
		t.Errorf("satcom TTE = %v, want overridden 42", got)
	}
}

func TestDropMarginalKnob(t *testing.T) {
	cfg := fastConfig(13)
	cfg.DropMarginalLinks = true
	c := New(cfg)
	c.RunHours(1)
	if plan := c.LastPlan(); plan != nil {
		for _, l := range plan.Links {
			if l.Report.Class == rf.Marginal {
				t.Error("marginal candidate chosen despite DropMarginalLinks")
			}
		}
	}
}

func TestHysteresisKnobReducesChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	run := func(bonus float64) int {
		cfg := fastConfig(14)
		cfg.SolverHysteresisBonus = bonus
		c := New(cfg)
		c.RunHours(4)
		w := 0
		for _, l := range c.Fabric.History() {
			if l.EndReason == radio.ReasonWithdrawn {
				w++
			}
		}
		return w
	}
	withHyst := run(-1) // default (1.5)
	without := run(0)
	t.Logf("withdrawals: hysteresis=%d none=%d", withHyst, without)
	if withHyst > without*2 {
		t.Errorf("hysteresis should not increase withdrawal churn (%d vs %d)", withHyst, without)
	}
}
