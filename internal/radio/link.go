// Package radio simulates the physical link layer: the lifecycle of
// point-to-point E band links between transceivers on moving
// platforms. It is the "truth" the TS-SDN's models approximate — the
// gap between what the Link Evaluator predicts and what this fabric
// measures is the modelled-vs-measured error of Fig. 10, and the
// lifetime statistics it produces are Fig. 11.
package radio

import (
	"strings"

	"minkowski/internal/geo"
	"minkowski/internal/platform"
	"minkowski/internal/rf"
)

// LinkID canonically identifies a link by its two transceiver IDs
// (lexicographically ordered so A→B and B→A are the same link).
type LinkID struct {
	A, B string
}

// MakeLinkID builds the canonical ID for a transceiver pair.
func MakeLinkID(a, b string) LinkID {
	if b < a {
		a, b = b, a
	}
	return LinkID{A: a, B: b}
}

// String implements fmt.Stringer.
func (id LinkID) String() string { return id.A + "<->" + id.B }

// Compare orders LinkIDs by (A, B), the order candidate graphs and the
// fabric's link slices are kept in.
func (id LinkID) Compare(o LinkID) int {
	if c := strings.Compare(id.A, o.A); c != 0 {
		return c
	}
	return strings.Compare(id.B, o.B)
}

// compareLinkToID is the order of the fabric's sorted link slices.
func compareLinkToID(l *Link, id LinkID) int { return l.ID.Compare(id) }

// State is a link's lifecycle position.
type State int

const (
	// StateSlewing: antennas are rotating toward each other.
	StateSlewing State = iota
	// StateAcquiring: endpoints are searching for each other's beam.
	StateAcquiring
	// StateUp: the link is carrying traffic.
	StateUp
	// StateDown: terminal; the link object is retired.
	StateDown
)

// Reason explains a link termination. The distinction between
// ReasonWithdrawn (the controller asked) and everything else (the
// physics decided) is the paper's planned-vs-unexpected split that
// drives Fig. 8's recovery comparison.
type Reason int

const (
	// ReasonNone: still alive.
	ReasonNone Reason = iota
	// ReasonWithdrawn: graceful, controller-initiated teardown.
	ReasonWithdrawn
	// ReasonAcquireFailed: the endpoints never found each other.
	ReasonAcquireFailed
	// ReasonRFFade: signal faded below the drop threshold (weather,
	// range growth).
	ReasonRFFade
	// ReasonGeometry: pointing left a field of regard, hit an
	// occlusion, or lost line of sight.
	ReasonGeometry
	// ReasonPowerLoss: an endpoint's payload lost power.
	ReasonPowerLoss
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonWithdrawn:
		return "withdrawn"
	case ReasonAcquireFailed:
		return "acquire-failed"
	case ReasonRFFade:
		return "rf-fade"
	case ReasonGeometry:
		return "geometry"
	case ReasonPowerLoss:
		return "power-loss"
	default:
		return "none"
	}
}

// Link is one point-to-point radio link instance (one attempt; a
// retry is a new Link).
type Link struct {
	ID LinkID
	XA *platform.Transceiver
	XB *platform.Transceiver
	// Channel both ends are tuned to.
	Channel rf.Channel
	// State machine position.
	State State
	// EndReason is set when State == StateDown.
	EndReason Reason
	// Times (sim seconds): when establishment was commanded, when the
	// link came up (0 if never), when it ended.
	CommandedAt   float64
	EstablishedAt float64
	EndedAt       float64
	// Measured is the latest link budget measured by the radios
	// (includes tracking noise and side-lobe effects).
	Measured rf.Budget
	// SideLobe marks a tracker locked onto the first side lobe — the
	// paper's "visible bump around −14 dB" in Fig. 10.
	SideLobe bool
	// Unstable marks a ground-terminated link that drew the unstable
	// scintillation regime at establishment (it will likely die
	// within minutes).
	Unstable bool
	// Attempt is 1 for the first try, incremented on retries of the
	// same pair by the intent layer.
	Attempt int

	// belowMarginChecks counts consecutive fade checks for hysteresis.
	belowMarginChecks int
	// path memoises the slow half of the last check while the link is
	// live; nil before the first one and again once it ends. It is
	// updated in place as the world moves.
	path *pathMemo
}

// pathMemo is the part of a link check that only moves when the world
// does, keyed on the complete identity of its inputs. The geometry —
// slant range, both pointings, line of sight — is keyed on both
// endpoint positions, bit for bit; the true path attenuation on the
// same positions and the weather field's version. (The channel, the
// only other input, is fixed for the life of a Link.)
type pathMemo struct {
	posA, posB geo.LLA
	dist       float64      // meters
	ptA, ptB   geo.Pointing // from A at B, and from B at A
	los        bool
	// atmos is valid while atmosOK, for posA/posB at wxVersion.
	atmosOK   bool
	wxVersion uint64
	atmos     float64 // dB
}

// IsB2G reports whether the link has a ground endpoint.
func (l *Link) IsB2G() bool {
	return l.XA.Node.Kind == platform.KindGround || l.XB.Node.Kind == platform.KindGround
}

// Up reports whether the link is carrying traffic.
func (l *Link) Up() bool { return l.State == StateUp }

// Lifetime returns the installed duration in seconds (0 if the link
// never came up or is still up).
func (l *Link) Lifetime() float64 {
	if l.EstablishedAt == 0 || l.EndedAt == 0 {
		return 0
	}
	return l.EndedAt - l.EstablishedAt
}

// Nodes returns the two endpoint node IDs.
func (l *Link) Nodes() (string, string) {
	return l.XA.Node.ID, l.XB.Node.ID
}
