// Package rf implements the radio link-budget chain the Link
// Evaluator runs for every candidate transceiver pair (§3.1): free
// space loss plus atmospheric attenuation, antenna gains, receiver
// noise, and the mapping from link margin to achievable bitrate.
//
// Loon's balloons each carried three E band (71–76/81–86 GHz)
// transceivers capable of up to 1 Gbps over mechanically pointed
// high-gain antennas. The budget constants below are tuned so the
// emergent ranges match the paper: B2G links establish at ~130 km and
// hold to 250+ km; B2B links establish at 500+ km with a maximum
// around 700+ km.
package rf

import (
	"math"
)

// Channel is one allocated slice of licensed spectrum.
type Channel struct {
	// ID is a small dense identifier.
	ID int
	// CenterGHz is the carrier frequency.
	CenterGHz float64
	// WidthMHz is the occupied bandwidth.
	WidthMHz float64
}

// EBandChannels returns the channel plan: four channels in the lower
// E band segment (71–76 GHz) and four in the upper (81–86 GHz), each
// 1.25 GHz wide. A link uses one channel per direction.
func EBandChannels() []Channel {
	chs := make([]Channel, 0, 8)
	for i := 0; i < 4; i++ {
		chs = append(chs, Channel{ID: i, CenterGHz: 71.625 + 1.25*float64(i), WidthMHz: 1250})
	}
	for i := 0; i < 4; i++ {
		chs = append(chs, Channel{ID: 4 + i, CenterGHz: 81.625 + 1.25*float64(i), WidthMHz: 1250})
	}
	return chs
}

// TxPowerLevelsDBm are the transmit power levels available to the
// solver ("For each transmit power level available..." §3.1).
func TxPowerLevelsDBm() []float64 { return []float64{24, 30, 36} }

// FreeSpaceLossDB returns the free-space path loss in dB at frequency
// fGHz over distM meters.
func FreeSpaceLossDB(fGHz, distM float64) float64 {
	if distM <= 0 || fGHz <= 0 {
		return 0
	}
	return 92.45 + 20*math.Log10(fGHz) + 20*math.Log10(distM/1000)
}

// NoiseFloorDBm returns the thermal noise power in dBm for the given
// bandwidth and receiver noise figure.
func NoiseFloorDBm(widthMHz, noiseFigureDB float64) float64 {
	return -174 + 10*math.Log10(widthMHz*1e6) + noiseFigureDB
}

// MCS is one modulation-and-coding operating point: the minimum SNR
// at which it closes, and the bitrate it delivers in a standard
// channel.
type MCS struct {
	Name      string
	MinSNRdB  float64
	BitrateHz float64 // spectral efficiency, bits/s/Hz
}

// MCSTable is the rate ladder, lowest first. The top rung saturates a
// 1.25 GHz channel at the paper's ~1 Gbps ("each capable of up to
// 1 Gbps"; the observed in-band peak was 987 Mbps).
var MCSTable = []MCS{
	{"BPSK-1/4", 0.0, 0.05},
	{"BPSK-1/2", 3.0, 0.10},
	{"QPSK-1/2", 6.0, 0.20},
	{"QPSK-3/4", 9.0, 0.40},
	{"16QAM-1/2", 12.0, 0.60},
	{"16QAM-3/4", 15.0, 0.79},
}

// MinSNRdB is the SNR below which no MCS closes and the link cannot
// carry data.
const MinSNRdB = 0.0

// BestMCS returns the highest MCS whose threshold the SNR meets, and
// false if none closes.
func BestMCS(snrDB float64) (MCS, bool) {
	var best MCS
	ok := false
	for _, m := range MCSTable {
		if snrDB >= m.MinSNRdB {
			best = m
			ok = true
		}
	}
	return best, ok
}

// Radio captures one transceiver's RF capabilities.
type Radio struct {
	// TxPowersDBm lists selectable transmit powers.
	TxPowersDBm []float64
	// NoiseFigureDB is the receive chain noise figure.
	NoiseFigureDB float64
	// Channels the radio can tune.
	Channels []Channel
}

// EBandRadio returns the standard Loon E band transceiver.
func EBandRadio() Radio {
	return Radio{
		TxPowersDBm:   TxPowerLevelsDBm(),
		NoiseFigureDB: 6,
		Channels:      EBandChannels(),
	}
}

// Budget is the result of a link-budget evaluation for one candidate
// link at one transmit power on one channel.
type Budget struct {
	// RxPowerDBm is the received signal power.
	RxPowerDBm float64
	// SNRdB is the carrier-to-noise ratio.
	SNRdB float64
	// MarginDB is the headroom above the minimum SNR needed for the
	// selected MCS.
	MarginDB float64
	// BitrateBps is the achievable bitrate (0 if the link cannot
	// close at any MCS).
	BitrateBps float64
	// MCS is the selected operating point when BitrateBps > 0.
	MCS MCS
}

// Closes reports whether the link closes at any rate.
func (b Budget) Closes() bool { return b.BitrateBps > 0 }

// Params bundles the inputs of one budget evaluation.
type Params struct {
	Channel        Channel
	TxPowerDBm     float64
	TxGainDBi      float64
	RxGainDBi      float64
	DistM          float64
	AtmosLossDB    float64 // gaseous + rain + cloud along the path
	PointingLossDB float64 // mispointing / implementation loss
	NoiseFigureDB  float64
}

// compute evaluates the budget chain given its two logarithmic terms,
// free-space loss and noise floor, which depend on neither transmit
// power nor gains: BestBudget takes them once per link, not once per
// power.
func compute(p Params, fspl, noise float64) Budget {
	rx := p.TxPowerDBm + p.TxGainDBi + p.RxGainDBi - fspl - p.AtmosLossDB - p.PointingLossDB
	snr := rx - noise
	b := Budget{RxPowerDBm: rx, SNRdB: snr}
	mcs, ok := BestMCS(snr)
	if !ok {
		b.MarginDB = snr - MinSNRdB // negative: how far from closing
		return b
	}
	b.MCS = mcs
	b.MarginDB = snr - mcs.MinSNRdB
	b.BitrateBps = mcs.BitrateHz * p.Channel.WidthMHz * 1e6
	return b
}

// BestBudget evaluates the budget at every available transmit power
// and returns the one with the highest bitrate (ties broken by
// margin), matching the Link Evaluator's per-power search ("For each
// transmit power level available ... compute the maximum bitrate with
// acceptable link margin").
func BestBudget(radio Radio, ch Channel, txGainDBi, rxGainDBi, distM, atmosLossDB, pointingLossDB float64) Budget {
	var best Budget
	first := true
	fspl := FreeSpaceLossDB(ch.CenterGHz, distM)
	noise := NoiseFloorDBm(ch.WidthMHz, radio.NoiseFigureDB)
	for _, pw := range radio.TxPowersDBm {
		b := compute(Params{
			Channel: ch, TxPowerDBm: pw,
			TxGainDBi: txGainDBi, RxGainDBi: rxGainDBi,
			DistM: distM, AtmosLossDB: atmosLossDB,
			PointingLossDB: pointingLossDB,
			NoiseFigureDB:  radio.NoiseFigureDB,
		}, fspl, noise)
		// b.BitrateBps >= best.BitrateBps here means equality (the >
		// case already accepted), phrased with ordered comparisons so
		// the tie-break involves no float equality.
		if first || b.BitrateBps > best.BitrateBps ||
			(b.BitrateBps >= best.BitrateBps && b.MarginDB > best.MarginDB) {
			best = b
			first = false
		}
	}
	return best
}

// MarginClass classifies a budget against the configured acceptable
// margin, implementing the paper's "marginal" link annotation: links
// just below the acceptable margin (within MarginalWindowDB) are
// retained, penalized in solving, and only attempted when nothing
// better exists.
type MarginClass int

const (
	// Unusable links cannot close or are too far below margin.
	Unusable MarginClass = iota
	// Marginal links are within the marginal window below the
	// acceptable margin.
	Marginal
	// Acceptable links meet the configured margin.
	Acceptable
)

// MarginalWindowDB is the paper's 5 dB deprioritization window: "Loon
// deprioritized links within 5 dB of the minimum signal strength".
const MarginalWindowDB = 5.0

// Classify returns the margin class of a budget given the configured
// acceptable margin in dB.
func Classify(b Budget, acceptableMarginDB float64) MarginClass {
	if !b.Closes() {
		return Unusable
	}
	if b.MarginDB >= acceptableMarginDB {
		return Acceptable
	}
	if b.MarginDB >= acceptableMarginDB-MarginalWindowDB {
		return Marginal
	}
	return Unusable
}
