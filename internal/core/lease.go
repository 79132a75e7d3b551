package core

import "fmt"

// LeaseGrant records one leadership tenure for auditing: who held the
// lease, at which fencing epoch, and over what interval. Until is
// extended by every successful renewal.
type LeaseGrant struct {
	Holder string
	Epoch  uint64
	At     float64
	Until  float64
}

// LeaseService models the small always-available coordination cell
// (Chubby/etcd in a production deployment) that both controller
// replicas talk to. It hands out a single renewable leadership lease;
// every grant carries a strictly increasing fencing epoch that the
// holder stamps on its CDPI commands. The service is normally
// reliable — the paper's failure domain is the controller processes
// and their links — but the chaos harness can flap the cell's write
// path (SetFlapping) to probe how leadership degrades when the
// consensus cell itself misbehaves.
type LeaseService struct {
	// TTLS is the lease time-to-live: a holder that fails to renew
	// within TTLS seconds of its last renewal is considered dead.
	TTLS float64

	holder    string
	epoch     uint64
	expiresAt float64

	// flapping marks an unreliable-cell window (chaos LeaseFlap):
	// while set, every Acquire and Renew request is dropped — the
	// write path is down — but reads (Holder, Epoch) keep answering
	// from the cell's existing state. A live lease can therefore lapse
	// with its holder healthy, and nobody can take a fresh one until
	// the cell heals.
	flapping bool

	// Renewals counts successful renewals (telemetry).
	Renewals int
	// flapDenials counts Acquire/Renew requests dropped while the cell
	// was flapping; read it via FlapDenials. The obs registry mirrors
	// it as the lease.flap_denials gauge, but the authoritative count
	// lives here so a bare LeaseService keeps counting without one.
	flapDenials int
	// Grants is the full tenure history, for the single-leader audit.
	Grants []LeaseGrant
}

// FlapDenials reports how many Acquire/Renew requests were dropped
// while the cell was flapping (telemetry).
func (s *LeaseService) FlapDenials() int { return s.flapDenials }

// SetFlapping starts or ends an unreliable-cell window.
func (s *LeaseService) SetFlapping(active bool) { s.flapping = active }

// Acquire attempts to take the lease at time now. It succeeds when the
// lease is free, expired, or already held by id, returning the (fresh,
// strictly larger) fencing epoch. It fails while another holder's
// lease is live.
func (s *LeaseService) Acquire(id string, now float64) (uint64, bool) {
	if s.flapping {
		s.flapDenials++
		return 0, false
	}
	if s.holder != "" && s.holder != id && now < s.expiresAt {
		return 0, false
	}
	s.epoch++
	s.holder = id
	s.expiresAt = now + s.TTLS
	s.Grants = append(s.Grants, LeaseGrant{Holder: id, Epoch: s.epoch, At: now, Until: s.expiresAt})
	return s.epoch, true
}

// Renew extends the lease iff id still holds it and it has not
// expired. An expired holder must Acquire again (receiving a new
// epoch) — this is what makes a partitioned primary's epoch go stale.
func (s *LeaseService) Renew(id string, now float64) bool {
	if s.flapping {
		s.flapDenials++
		return false
	}
	if s.holder != id || now >= s.expiresAt {
		return false
	}
	s.expiresAt = now + s.TTLS
	s.Grants[len(s.Grants)-1].Until = s.expiresAt
	s.Renewals++
	return true
}

// Holder reports the current holder and epoch, and whether the lease
// is live at time now.
func (s *LeaseService) Holder(now float64) (string, uint64, bool) {
	if s.holder == "" || now >= s.expiresAt {
		return "", s.epoch, false
	}
	return s.holder, s.epoch, true
}

// Epoch returns the most recently granted fencing epoch.
func (s *LeaseService) Epoch() uint64 { return s.epoch }

// Audit replays the tenure history and returns a description of every
// violation of the lease safety properties: at most one holder at any
// instant (consecutive grants to different holders must not overlap)
// and strictly monotonic epochs. Empty means the history is clean.
func (s *LeaseService) Audit() []string {
	var out []string
	for i := 1; i < len(s.Grants); i++ {
		prev, cur := s.Grants[i-1], s.Grants[i]
		if cur.Holder != prev.Holder && cur.At < prev.Until {
			out = append(out, fmt.Sprintf(
				"overlapping tenures: %s (epoch %d, until %.1f) and %s (epoch %d, from %.1f)",
				prev.Holder, prev.Epoch, prev.Until, cur.Holder, cur.Epoch, cur.At))
		}
		if cur.Epoch <= prev.Epoch {
			out = append(out, fmt.Sprintf(
				"non-monotonic epochs: grant %d has epoch %d after epoch %d",
				i, cur.Epoch, prev.Epoch))
		}
	}
	return out
}
