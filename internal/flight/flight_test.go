package flight

import (
	"math"
	"testing"

	"minkowski/internal/geo"
	"minkowski/internal/wind"
)

func testSetup(fleet int) (*FMS, *wind.Field) {
	w := wind.NewField(wind.DefaultConfig())
	target := geo.LLADeg(-1, 37, 0)
	cfg := DefaultConfig(target)
	cfg.FleetSize = fleet
	return NewFMS(cfg, w), w
}

func TestBalloonVerticalRateLimit(t *testing.T) {
	w := wind.NewField(wind.DefaultConfig())
	b := &Balloon{ID: "t", Pos: geo.LLADeg(-1, 37, 15000), TargetAltM: 18000}
	b.Step(w, 60)
	climbed := b.Pos.Alt - 15000
	if climbed > VerticalRateMS*60+1e-9 {
		t.Errorf("climbed %v m in 60 s, exceeds pump rate", climbed)
	}
	if climbed <= 0 {
		t.Error("balloon should climb toward its target")
	}
}

func TestBalloonReachesTargetAltitude(t *testing.T) {
	w := wind.NewField(wind.DefaultConfig())
	b := &Balloon{ID: "t", Pos: geo.LLADeg(-1, 37, 15000), TargetAltM: 16000}
	for i := 0; i < 20; i++ {
		b.Step(w, 60)
	}
	if math.Abs(b.Pos.Alt-16000) > 1 {
		t.Errorf("altitude %v after 20 min, want 16000", b.Pos.Alt)
	}
}

func TestBalloonDriftsWithWind(t *testing.T) {
	w := wind.NewField(wind.DefaultConfig())
	start := geo.LLADeg(-1, 37, 16000)
	b := &Balloon{ID: "t", Pos: start, TargetAltM: 16000}
	for i := 0; i < 60; i++ {
		b.Step(w, 60)
	}
	moved := geo.GreatCircle(start, b.Pos)
	// An hour of drift at typical stratospheric winds: kilometers to
	// tens of km.
	if moved < 1e3 || moved > 200e3 {
		t.Errorf("drifted %v m in an hour — outside plausible range", moved)
	}
}

func TestFMSInitialFleet(t *testing.T) {
	f, _ := testSetup(30)
	if len(f.Fleet) != 30 {
		t.Fatalf("fleet size = %d", len(f.Fleet))
	}
	ids := map[string]bool{}
	for _, b := range f.Fleet {
		if ids[b.ID] {
			t.Errorf("duplicate balloon ID %s", b.ID)
		}
		ids[b.ID] = true
		if b.Pos.Alt < 13000 || b.Pos.Alt > 20000 {
			t.Errorf("%s launched at altitude %v", b.ID, b.Pos.Alt)
		}
	}
}

func TestFMSStationKeeping(t *testing.T) {
	f, w := testSetup(30)
	// Run 24 h of simulation with wind evolution.
	for i := 0; i < 24*60; i++ {
		w.Step(60)
		f.Step(60)
	}
	// Station-seeking should hold a meaningful share of the fleet
	// within a few hundred km of target. (Loon accepted substantial
	// spread: meshes spanned 3000+ km.)
	near := 0
	for _, b := range f.Fleet {
		if geo.GreatCircle(b.Pos, f.Target) < 500e3 {
			near++
		}
	}
	if near < len(f.Fleet)/3 {
		t.Errorf("only %d/%d balloons within 500 km after a day of station-seeking", near, len(f.Fleet))
	}
}

func TestFMSRecycling(t *testing.T) {
	f, w := testSetup(10)
	// Shrink the recycle radius so the effect is visible quickly.
	f.RecycleRadiusM = 100e3
	for i := 0; i < 48*60; i++ {
		w.Step(60)
		f.Step(60)
	}
	if f.Recycled == 0 {
		t.Error("with a 100 km recycle radius, two days of drift must recycle someone")
	}
	if len(f.Fleet) != 10 {
		t.Errorf("fleet size changed to %d — recycling must replace, not remove", len(f.Fleet))
	}
	for _, b := range f.Fleet {
		if geo.GreatCircle(b.Pos, f.Target) > f.RecycleRadiusM*1.5 {
			t.Errorf("%s at %v m from target after recycling sweep", b.ID, geo.GreatCircle(b.Pos, f.Target))
		}
	}
}

func TestDeterministicFleet(t *testing.T) {
	f1, w1 := testSetup(10)
	f2, w2 := testSetup(10)
	for i := 0; i < 500; i++ {
		w1.Step(60)
		f1.Step(60)
		w2.Step(60)
		f2.Step(60)
	}
	for i := range f1.Fleet {
		if f1.Fleet[i].Pos != f2.Fleet[i].Pos || f1.Fleet[i].ID != f2.Fleet[i].ID {
			t.Fatal("same seeds must give identical fleets")
		}
	}
}

func TestPredictTrajectory(t *testing.T) {
	f, _ := testSetup(5)
	b := f.Fleet[0]
	pred := f.PredictTrajectory(b, 3600, 300)
	if len(pred) != 12 {
		t.Fatalf("want 12 predicted points, got %d", len(pred))
	}
	// Prediction must not mutate the balloon.
	if pred[len(pred)-1].Pos == b.Pos {
		t.Error("prediction end equals current position — balloon not advancing in prediction?")
	}
	// Lead times must be increasing and positions contiguous (no
	// teleporting: consecutive points within max drift distance).
	for i := 1; i < len(pred); i++ {
		if pred[i].LeadS <= pred[i-1].LeadS {
			t.Error("lead times must increase")
		}
		d := geo.GreatCircle(pred[i-1].Pos, pred[i].Pos)
		if d > 60*300 { // 60 m/s * step — far above any plausible wind
			t.Errorf("prediction jumps %v m in one step", d)
		}
	}
}

// TestPredictPositionIsTrajectoryEnd: the one-point prediction the
// Link Evaluator reads is the trajectory's last point bit for bit,
// through station-keeping and loiter decisions alike, and b's own
// position when no step fits the horizon.
func TestPredictPositionIsTrajectoryEnd(t *testing.T) {
	f, _ := testSetup(8)
	for _, b := range f.Fleet {
		for _, h := range [][2]float64{{180, 180}, {3600, 300}, {7200, 600}} {
			pred := f.PredictTrajectory(b, h[0], h[1])
			if got, want := f.PredictPosition(b, h[0], h[1]), pred[len(pred)-1].Pos; got != want {
				t.Errorf("%s over %v s: PredictPosition %v, trajectory end %v", b.ID, h, got, want)
			}
		}
		if got := f.PredictPosition(b, 60, 120); got != b.Pos {
			t.Errorf("%s: a horizon shorter than the step predicts %v, want the balloon's own %v", b.ID, got, b.Pos)
		}
	}
}

func TestPredictionErrorGrowsWithLead(t *testing.T) {
	// Predict, then actually fly with evolving winds, and compare.
	f, w := testSetup(5)
	b := f.Fleet[0]
	pred := f.PredictTrajectory(b, 7200, 600)
	shortErr, longErr := -1.0, -1.0
	elapsed := 0.0
	pi := 0
	for pi < len(pred) {
		w.Step(60)
		f.Step(60)
		elapsed += 60
		if elapsed >= pred[pi].LeadS {
			err := geo.GreatCircle(b.Pos, pred[pi].Pos)
			if shortErr < 0 {
				shortErr = err
			}
			longErr = err
			pi++
		}
	}
	// Not strictly monotone, but the 2 h error should exceed the
	// 10 min error in any plausible run.
	if longErr < shortErr {
		t.Logf("note: long-lead error (%v) below short-lead (%v) in this seed", longErr, shortErr)
	}
	if longErr == 0 {
		t.Error("frozen-field prediction can't be exact over 2 h of evolving winds")
	}
}

func BenchmarkFleetStep(b *testing.B) {
	f, w := testSetup(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(60)
		f.Step(60)
	}
}

func BenchmarkPredictTrajectory(b *testing.B) {
	f, _ := testSetup(5)
	bal := f.Fleet[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.PredictTrajectory(bal, 3600, 300)
	}
}
