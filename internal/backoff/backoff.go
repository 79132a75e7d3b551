// Package backoff is the unified retry policy shared by every layer
// that re-dispatches work over an unreliable channel: the CDPI
// frontend's channel-cycling command retries and the satcom gateway's
// provider-outage queue. The paper's operational sections (§4.1–4.2,
// §6) make retries a first-class mechanism — "set a new TTE, and
// retried the command" — and a single capped-exponential policy with
// seeded jitter keeps those retries deterministic (reproducible runs)
// while preventing synchronized retry storms after a shared fault such
// as a satcom provider outage.
package backoff

import "math/rand"

// Policy is a capped exponential backoff with multiplicative jitter.
// The zero value means "retry immediately, forever" — the pre-policy
// behaviour — so adopting sites can be wired incrementally.
type Policy struct {
	// BaseS is the delay before the first retry (attempt 2).
	BaseS float64
	// CapS bounds the exponential growth (0 = uncapped).
	CapS float64
	// Mult is the per-attempt growth factor (values < 1 are treated
	// as the conventional doubling).
	Mult float64
	// JitterFrac spreads each delay uniformly over ±JitterFrac of its
	// nominal value, drawn from a seeded stream for determinism.
	JitterFrac float64
	// MaxAttempts bounds total attempts (0 = unbounded).
	MaxAttempts int
}

// Default is the fleet-wide policy: 2 s base doubling to a 2-minute
// cap with ±20% jitter. Sites override fields as needed.
func Default() Policy {
	return Policy{BaseS: 2, CapS: 120, Mult: 2, JitterFrac: 0.2, MaxAttempts: 4}
}

// Delay returns the wait before the given attempt number retries.
// Attempt numbering follows the CDPI convention: attempt 1 is the
// initial dispatch, so Delay(1) is the wait before attempt 2. rng may
// be nil to disable jitter.
func (p Policy) Delay(attempt int, rng *rand.Rand) float64 {
	if attempt < 1 {
		attempt = 1
	}
	d := p.BaseS
	mult := p.Mult
	if mult < 1 {
		mult = 2
	}
	for i := 1; i < attempt; i++ {
		d *= mult
		if p.CapS > 0 && d >= p.CapS {
			d = p.CapS
			break
		}
	}
	if p.CapS > 0 && d > p.CapS {
		d = p.CapS
	}
	if p.JitterFrac > 0 && rng != nil && d > 0 {
		d *= 1 + p.JitterFrac*(2*rng.Float64()-1)
	}
	return d
}

// Exhausted reports whether the given completed attempt count has
// consumed the retry budget.
func (p Policy) Exhausted(attempts int) bool {
	return p.MaxAttempts > 0 && attempts >= p.MaxAttempts
}
