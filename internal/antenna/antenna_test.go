package antenna

import (
	"math"
	"testing"

	"minkowski/internal/geo"
)

func TestBalloonFieldOfRegard(t *testing.T) {
	f := BalloonFieldOfRegard()
	cases := []struct {
		name string
		el   float64
		want bool
	}{
		{"nadir", -math.Pi / 2, true},
		{"horizontal", 0, true},
		{"plus-20", geo.Deg(20), true},
		{"plus-21", geo.Deg(21), false},
		{"zenith", math.Pi / 2, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := f.Contains(geo.Pointing{Elevation: c.el})
			if got != c.want {
				t.Errorf("Contains(el=%v°) = %v, want %v", geo.ToDeg(c.el), got, c.want)
			}
		})
	}
}

func TestOcclusionBlocks(t *testing.T) {
	o := Occlusion{AzMin: geo.Deg(90), AzMax: geo.Deg(120), ElMax: geo.Deg(10), Label: "ridge"}
	cases := []struct {
		name   string
		az, el float64
		want   bool
	}{
		{"inside", geo.Deg(100), geo.Deg(5), true},
		{"above", geo.Deg(100), geo.Deg(15), false},
		{"west-of", geo.Deg(80), geo.Deg(5), false},
		{"east-of", geo.Deg(130), geo.Deg(5), false},
		{"edge-at-elmax", geo.Deg(100), geo.Deg(10), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := o.Blocks(geo.Pointing{Azimuth: c.az, Elevation: c.el})
			if got != c.want {
				t.Errorf("Blocks(az=%v°, el=%v°) = %v, want %v", geo.ToDeg(c.az), geo.ToDeg(c.el), got, c.want)
			}
		})
	}
}

func TestOcclusionWrapsThroughNorth(t *testing.T) {
	o := Occlusion{AzMin: geo.Deg(350), AzMax: geo.Deg(10), ElMax: geo.Deg(20), Label: "wrap"}
	if !o.Blocks(geo.Pointing{Azimuth: geo.Deg(355), Elevation: 0}) {
		t.Error("355° should be inside the wrapped sector")
	}
	if !o.Blocks(geo.Pointing{Azimuth: geo.Deg(5), Elevation: 0}) {
		t.Error("5° should be inside the wrapped sector")
	}
	if o.Blocks(geo.Pointing{Azimuth: geo.Deg(180), Elevation: 0}) {
		t.Error("180° should be outside the wrapped sector")
	}
}

func TestGimbalSlewTime(t *testing.T) {
	g := Gimbal{SlewRate: geo.Deg(5), Az: 0, El: 0}
	target := geo.Pointing{Azimuth: geo.Deg(90), Elevation: geo.Deg(10)}
	want := 90.0 / 5.0
	if got := g.SlewTime(target); math.Abs(got-want) > 1e-9 {
		t.Errorf("SlewTime = %v s, want %v s", got, want)
	}
	// Slewing the short way around through north.
	g.Az = geo.Deg(350)
	target = geo.Pointing{Azimuth: geo.Deg(10)}
	if got := g.SlewTime(target); math.Abs(got-4.0) > 1e-9 {
		t.Errorf("wrap-around SlewTime = %v s, want 4 s", got)
	}
}

func TestGimbalPointAt(t *testing.T) {
	g := Gimbal{SlewRate: geo.Deg(5)}
	g.PointAt(geo.Pointing{Azimuth: geo.Deg(370), Elevation: geo.Deg(-45)})
	if math.Abs(g.Az-geo.Deg(10)) > 1e-9 {
		t.Errorf("azimuth not normalized: %v", geo.ToDeg(g.Az))
	}
	if g.El != geo.Deg(-45) {
		t.Errorf("elevation = %v", geo.ToDeg(g.El))
	}
}

func TestBalloonMountsDistinctOcclusions(t *testing.T) {
	mounts := BalloonMountsN(3)
	if len(mounts) != 3 {
		t.Fatalf("want 3 mounts, got %d", len(mounts))
	}
	// Every horizontal direction should be reachable by at least two
	// mounts (the paper: "substantial — though not complete — overlap
	// between each antenna's field of regard").
	for azDeg := 0; azDeg < 360; azDeg += 5 {
		p := geo.Pointing{Azimuth: geo.Deg(float64(azDeg)), Elevation: 0}
		n := 0
		for _, m := range mounts {
			if ok, _ := m.CanPoint(p); ok {
				n++
			}
		}
		if n < 2 {
			t.Errorf("azimuth %d° reachable by %d mounts, want ≥2", azDeg, n)
		}
	}
	// And each mount must have some blocked sector.
	for _, m := range mounts {
		blockedSomewhere := false
		for azDeg := 0; azDeg < 360; azDeg++ {
			p := geo.Pointing{Azimuth: geo.Deg(float64(azDeg)), Elevation: 0}
			if ok, why := m.CanPoint(p); !ok && why == "bus" {
				blockedSomewhere = true
				break
			}
		}
		if !blockedSomewhere {
			t.Errorf("%s has no bus occlusion", m.Name)
		}
	}
}

func TestMountCanPointReasons(t *testing.T) {
	m := BalloonMountsN(3)[0]
	if ok, why := m.CanPoint(geo.Pointing{Elevation: math.Pi / 2}); ok || why != "field-of-regard" {
		t.Errorf("zenith: ok=%v why=%q", ok, why)
	}
	// The first mount's bus occlusion is centered at 180°.
	if ok, why := m.CanPoint(geo.Pointing{Azimuth: geo.Deg(180), Elevation: 0}); ok || why != "bus" {
		t.Errorf("through-bus: ok=%v why=%q", ok, why)
	}
	if ok, why := m.CanPoint(geo.Pointing{Azimuth: 0, Elevation: 0}); !ok {
		t.Errorf("clear pointing blocked by %q", why)
	}
}

func TestGroundMounts(t *testing.T) {
	terrain := []Occlusion{{AzMin: geo.Deg(80), AzMax: geo.Deg(100), ElMax: geo.Deg(4), Label: "ridge"}}
	mounts := GroundMounts(terrain)
	if len(mounts) != 2 {
		t.Fatalf("want 2 mounts, got %d", len(mounts))
	}
	for _, m := range mounts {
		// Low pointing into the ridge is blocked...
		if ok, why := m.CanPoint(geo.Pointing{Azimuth: geo.Deg(90), Elevation: geo.Deg(2)}); ok || why != "ridge" {
			t.Errorf("%v: ridge not blocking: ok=%v why=%q", m, ok, why)
		}
		// ...but pointing above it clears.
		if ok, _ := m.CanPoint(geo.Pointing{Azimuth: geo.Deg(90), Elevation: geo.Deg(6)}); !ok {
			t.Errorf("%v: pointing above ridge should clear", m)
		}
		// Ground mounts cannot point below the horizon.
		if ok, _ := m.CanPoint(geo.Pointing{Azimuth: 0, Elevation: geo.Deg(-1)}); ok {
			t.Errorf("%v: below-horizon pointing should be out of envelope", m)
		}
	}
	// Mutating one mount's occlusions must not affect the other (the
	// constructor must copy the terrain slice).
	mounts[0].Occlusions[0].ElMax = geo.Deg(45)
	if mounts[1].Occlusions[0].ElMax == geo.Deg(45) {
		t.Error("ground mounts share occlusion storage")
	}
}

func TestGroundPatternOutperformsBalloon(t *testing.T) {
	if GroundEBandPattern().PeakDBi <= EBandPattern().PeakDBi {
		t.Error("ground antennas should have higher gain than balloon antennas")
	}
}

func BenchmarkCanPoint(b *testing.B) {
	m := BalloonMountsN(3)[0]
	p := geo.Pointing{Azimuth: geo.Deg(100), Elevation: geo.Deg(-5)}
	for i := 0; i < b.N; i++ {
		_, _ = m.CanPoint(p)
	}
}
