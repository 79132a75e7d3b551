package rf

import (
	"math"
	"testing"
	"testing/quick"

	"minkowski/internal/geo"
	"minkowski/internal/weather"
)

// clearSky is a weather source with no rain anywhere; the emergent
// range tests integrate the real gaseous model along real geometry.
type clearSky struct{}

func (clearSky) EstimateRain(geo.LLA) (float64, bool) { return 0, true }
func (clearSky) AgeSeconds() float64                  { return 0 }

// b2bAtmos returns clear-air path attenuation between two balloons at
// 18 km separated by distM (the chord dips toward the troposphere at
// long range, which is what actually caps B2B reach).
func b2bAtmos(distM float64) float64 {
	a := geo.LLADeg(-1, 36, 18000)
	b := geo.Offset(a, geo.Deg(90), distM)
	b.Alt = 18000
	return weather.EstimatePathAttenuation(clearSky{}, 72, a, b)
}

// b2gAtmos returns clear-air attenuation from a ground station at
// 1.6 km to a balloon at 18 km at the given ground distance.
func b2gAtmos(distM float64) float64 {
	gs := geo.LLADeg(-1, 36, 1600)
	b := geo.Offset(gs, geo.Deg(90), distM)
	b.Alt = 18000
	return weather.EstimatePathAttenuation(clearSky{}, 72, gs, b)
}

func TestFreeSpaceLossKnownValues(t *testing.T) {
	// FSPL at 80 GHz over 100 km: 92.45 + 20log10(80) + 20log10(100)
	// = 92.45 + 38.06 + 40 = 170.51 dB.
	got := FreeSpaceLossDB(80, 100e3)
	if math.Abs(got-170.51) > 0.05 {
		t.Errorf("FSPL(80 GHz, 100 km) = %v, want ~170.51", got)
	}
	if FreeSpaceLossDB(80, 0) != 0 {
		t.Error("zero distance should return 0")
	}
}

func TestFreeSpaceLossScaling(t *testing.T) {
	// Doubling distance adds ~6.02 dB.
	d1 := FreeSpaceLossDB(80, 100e3)
	d2 := FreeSpaceLossDB(80, 200e3)
	if math.Abs((d2-d1)-6.0206) > 0.001 {
		t.Errorf("doubling distance added %v dB, want 6.02", d2-d1)
	}
	// Doubling frequency also adds ~6.02 dB.
	f2 := FreeSpaceLossDB(40, 100e3)
	if math.Abs((d1-f2)-6.0206) > 0.001 {
		t.Errorf("doubling frequency added %v dB, want 6.02", d1-f2)
	}
}

func TestNoiseFloor(t *testing.T) {
	// kTB for 1.25 GHz: -174 + 10log10(1.25e9) ≈ -83.03; +6 NF = -77.03.
	got := NoiseFloorDBm(1250, 6)
	if math.Abs(got-(-77.03)) > 0.05 {
		t.Errorf("noise floor = %v, want ~-77.03", got)
	}
}

func TestEBandChannels(t *testing.T) {
	chs := EBandChannels()
	if len(chs) != 8 {
		t.Fatalf("want 8 channels, got %d", len(chs))
	}
	seen := map[int]bool{}
	for _, c := range chs {
		if seen[c.ID] {
			t.Errorf("duplicate channel ID %d", c.ID)
		}
		seen[c.ID] = true
		inLower := c.CenterGHz > 71 && c.CenterGHz < 76
		inUpper := c.CenterGHz > 81 && c.CenterGHz < 86
		if !inLower && !inUpper {
			t.Errorf("channel %v outside the E band segments", c)
		}
	}
}

func TestBestMCS(t *testing.T) {
	if _, ok := BestMCS(-0.1); ok {
		t.Error("SNR below minimum should not close")
	}
	m, ok := BestMCS(0.0)
	if !ok || m.Name != "BPSK-1/4" {
		t.Errorf("SNR 0 dB → %v, want BPSK-1/4", m.Name)
	}
	m, ok = BestMCS(3.0)
	if !ok || m.Name != "BPSK-1/2" {
		t.Errorf("SNR 3 dB → %v, want BPSK-1/2", m.Name)
	}
	m, _ = BestMCS(100)
	if m.Name != "16QAM-3/4" {
		t.Errorf("high SNR → %v, want top MCS", m.Name)
	}
}

func TestMCSMonotone(t *testing.T) {
	for i := 1; i < len(MCSTable); i++ {
		if MCSTable[i].MinSNRdB <= MCSTable[i-1].MinSNRdB {
			t.Error("MCS thresholds must be strictly increasing")
		}
		if MCSTable[i].BitrateHz <= MCSTable[i-1].BitrateHz {
			t.Error("MCS rates must be strictly increasing")
		}
	}
}

func TestTopRateNearOneGbps(t *testing.T) {
	top := MCSTable[len(MCSTable)-1]
	rate := top.BitrateHz * 1250e6
	if rate < 950e6 || rate > 1050e6 {
		t.Errorf("top rate = %v bps, want ~1 Gbps", rate)
	}
}

// b2bBudget computes a clear-air B2B budget at the given range using
// the real gaseous path attenuation.
func b2bBudget(distM float64) Budget {
	radio := EBandRadio()
	return BestBudget(radio, radio.Channels[0], 45, 45, distM, b2bAtmos(distM), 1.0)
}

// b2gBudget computes a B2G budget at the given range and extra
// weather (rain/cloud) loss.
func b2gBudget(distM, weatherDB float64) Budget {
	radio := EBandRadio()
	return BestBudget(radio, radio.Channels[0], 45, 50, distM, b2gAtmos(distM)+weatherDB, 1.0)
}

func TestEmergentB2BRanges(t *testing.T) {
	// The paper: B2B established at 500+ km, max 700+ km.
	if b := b2bBudget(500e3); !b.Closes() {
		t.Errorf("B2B at 500 km should close, SNR=%v", b.SNRdB)
	}
	if b := b2bBudget(700e3); !b.Closes() {
		t.Errorf("B2B at 700 km should close (at minimum rate), SNR=%v", b.SNRdB)
	}
	if b := b2bBudget(900e3); b.Closes() {
		t.Errorf("B2B at 900 km should NOT close, SNR=%v", b.SNRdB)
	}
}

func TestEmergentB2GRanges(t *testing.T) {
	// The paper: B2G established at 130 km in good weather, maintained
	// to 250+ km.
	if b := b2gBudget(130e3, 0); !b.Closes() || b.MarginDB < 5 {
		t.Errorf("B2G at 130 km clear should close with comfortable margin, got %+v", b)
	}
	if b := b2gBudget(250e3, 0); !b.Closes() {
		t.Errorf("B2G at 250 km clear should still close, SNR=%v", b.SNRdB)
	}
	// Heavy rain (30+ dB of path attenuation) kills a 130 km B2G link.
	if b := b2gBudget(130e3, 35); b.Closes() {
		t.Errorf("B2G at 130 km in heavy rain should fail, SNR=%v", b.SNRdB)
	}
}

func TestShortB2GReachesTopRate(t *testing.T) {
	b := b2gBudget(100e3, 0)
	if b.MCS.Name != "16QAM-3/4" {
		t.Errorf("short clear B2G should reach the top MCS, got %v (SNR %v)", b.MCS.Name, b.SNRdB)
	}
}

func TestBudgetMonotoneInDistance(t *testing.T) {
	f := func(km1, km2 float64) bool {
		d1 := 50e3 + math.Abs(math.Mod(km1, 800))*1000
		d2 := 50e3 + math.Abs(math.Mod(km2, 800))*1000
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		b1, b2 := b2bBudget(d1), b2bBudget(d2)
		return b1.SNRdB >= b2.SNRdB-1e-9 && b1.BitrateBps >= b2.BitrateBps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBestBudgetPrefersHigherPower(t *testing.T) {
	radio := EBandRadio()
	best := BestBudget(radio, radio.Channels[0], 45, 45, 600e3, 1, 1)
	// Best budget at long range must be achieved at max power.
	top := radio.TxPowersDBm[len(radio.TxPowersDBm)-1] // levels ascend
	maxOnly := Radio{TxPowersDBm: []float64{top}, NoiseFigureDB: radio.NoiseFigureDB}
	atMax := BestBudget(maxOnly, radio.Channels[0], 45, 45, 600e3, 1, 1)
	if best.SNRdB != atMax.SNRdB {
		t.Errorf("best budget SNR %v != max-power SNR %v", best.SNRdB, atMax.SNRdB)
	}
}

func TestClassify(t *testing.T) {
	acceptable := 3.0
	mk := func(margin float64, closes bool) Budget {
		b := Budget{MarginDB: margin}
		if closes {
			b.BitrateBps = 125e6
		}
		return b
	}
	cases := []struct {
		name string
		b    Budget
		want MarginClass
	}{
		{"healthy", mk(5, true), Acceptable},
		{"exactly-at-margin", mk(3, true), Acceptable},
		{"marginal", mk(0, true), Marginal},
		{"bottom-of-window", mk(-2, true), Marginal},
		{"below-window", mk(-2.5, true), Unusable},
		{"does-not-close", mk(10, false), Unusable},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Classify(c.b, acceptable); got != c.want {
				t.Errorf("Classify(margin=%v) = %v, want %v", c.b.MarginDB, got, c.want)
			}
		})
	}
}

func BenchmarkBestBudget(b *testing.B) {
	radio := EBandRadio()
	for i := 0; i < b.N; i++ {
		_ = BestBudget(radio, radio.Channels[0], 43, 43, 500e3, 1, 1)
	}
}
