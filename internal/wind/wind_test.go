package wind

import (
	"math"
	"testing"

	"minkowski/internal/geo"
)

func TestLayersCoverBand(t *testing.T) {
	f := NewField(DefaultConfig())
	layers := f.layers
	if len(layers) != DefaultConfig().LayerCount {
		t.Fatalf("layer count = %d", len(layers))
	}
	if layers[0].AltMinM != 14000 || layers[len(layers)-1].AltMaxM != 19000 {
		t.Error("layers must span the configured band")
	}
	for i := 1; i < len(layers); i++ {
		if layers[i].AltMinM != layers[i-1].AltMaxM {
			t.Error("layers must tile without gaps")
		}
	}
}

func TestLayerAtClamps(t *testing.T) {
	f := NewField(DefaultConfig())
	if got := f.LayerAt(5000); got != f.layers[0] {
		t.Error("below-band altitude should clamp to the bottom layer")
	}
	last := f.layers[len(f.layers)-1]
	if got := f.LayerAt(25000); got != last {
		t.Error("above-band altitude should clamp to the top layer")
	}
	mid := f.LayerAt(16250)
	if 16250 < mid.AltMinM || 16250 > mid.AltMaxM {
		t.Errorf("mid-band lookup returned wrong layer [%v,%v]", mid.AltMinM, mid.AltMaxM)
	}
}

func TestInitialHeadingsSpread(t *testing.T) {
	// Navigation requires layers blowing in different directions: the
	// spread of headings must cover a wide arc.
	f := NewField(DefaultConfig())
	minH, maxH := math.Inf(1), math.Inf(-1)
	for _, l := range f.layers {
		h := l.Heading()
		if h < minH {
			minH = h
		}
		if h > maxH {
			maxH = h
		}
	}
	if maxH-minH < geo.Deg(120) {
		t.Errorf("heading spread only %v°, navigation would be impossible", geo.ToDeg(maxH-minH))
	}
}

func TestDeterminism(t *testing.T) {
	f1 := NewField(DefaultConfig())
	f2 := NewField(DefaultConfig())
	for i := 0; i < 200; i++ {
		f1.Step(60)
		f2.Step(60)
	}
	l1, l2 := f1.layers, f2.layers
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("same seed must give identical wind evolution")
		}
	}
}

func TestStepKeepsSpeedsBounded(t *testing.T) {
	f := NewField(DefaultConfig())
	for i := 0; i < 5000; i++ {
		f.Step(60)
	}
	for _, l := range f.layers {
		if s := l.Speed(); s > 60 {
			t.Errorf("layer wind %v m/s is unphysical (OU not mean-reverting?)", s)
		}
	}
}

func TestVelocityAtSpatialVariation(t *testing.T) {
	f := NewField(DefaultConfig())
	u1, v1 := f.VelocityAt(geo.LLADeg(-1, 37, 16000))
	u2, v2 := f.VelocityAt(geo.LLADeg(1.5, 39, 16000))
	if u1 == u2 && v1 == v2 {
		t.Error("wind should vary spatially within a layer")
	}
	// Same position: deterministic.
	u3, v3 := f.VelocityAt(geo.LLADeg(-1, 37, 16000))
	if u1 != u3 || v1 != v3 {
		t.Error("VelocityAt must be deterministic for the same query")
	}
}

func TestVelocityCorrelatedNearby(t *testing.T) {
	f := NewField(DefaultConfig())
	u1, v1 := f.VelocityAt(geo.LLADeg(-1.0, 37.0, 16000))
	u2, v2 := f.VelocityAt(geo.LLADeg(-1.05, 37.05, 16000))
	// Balloons a few km apart in the same layer see nearly the same
	// wind — the correlated-motion property the paper credits for B2B
	// link longevity.
	if math.Hypot(u1-u2, v1-v2) > 2 {
		t.Errorf("nearby winds differ by %v m/s, want < 2", math.Hypot(u1-u2, v1-v2))
	}
}

func TestBestLayerToward(t *testing.T) {
	f := NewField(DefaultConfig())
	// For every bearing, the chosen layer's along-track speed must be
	// the best achievable (no other layer strictly dominates on the
	// scoring function).
	for bDeg := 0.0; bDeg < 360; bDeg += 30 {
		bearing := geo.Deg(bDeg)
		i, along := f.BestLayerToward(bearing)
		if i < 0 || i >= len(f.layers) {
			t.Fatalf("layer index out of range: %d", i)
		}
		// With 10 well-spread layers there should almost always be a
		// layer making forward progress.
		if along < -1 {
			t.Errorf("bearing %v°: best along-track %v m/s — no usable layer?", bDeg, along)
		}
	}
}

func TestLayerCenterAltClamps(t *testing.T) {
	f := NewField(DefaultConfig())
	if got := f.LayerCenterAlt(-5); got != f.LayerCenterAlt(0) {
		t.Error("negative index should clamp")
	}
	n := len(f.layers)
	if got := f.LayerCenterAlt(n + 5); got != f.LayerCenterAlt(n-1) {
		t.Error("overflow index should clamp")
	}
	c0 := f.LayerCenterAlt(0)
	if c0 != (14000+14500)/2 {
		t.Errorf("layer 0 center = %v", c0)
	}
}

func BenchmarkStep(b *testing.B) {
	f := NewField(DefaultConfig())
	for i := 0; i < b.N; i++ {
		f.Step(60)
	}
}

func BenchmarkVelocityAt(b *testing.B) {
	f := NewField(DefaultConfig())
	p := geo.LLADeg(-1, 37, 16000)
	for i := 0; i < b.N; i++ {
		_, _ = f.VelocityAt(p)
	}
}
