// Package satcom simulates the Tier 0 control plane (§4.1): two
// commercial satellite IoT messaging services providing reliable but
// slow, narrow out-of-band reachability to every balloon.
//
// The latency model is calibrated to the paper's published combined
// statistics: round-trip command latency of 23 s best case, 1m27s
// median, 5m47s at p90 and 14m50s at p99, with a throughput limit of
// roughly one 1 KiB message per minute per balloon.
//
// The gateway implements the paper's §4.2 message-queuing semantics:
// per-balloon rate limiting, queue-depth-blind ETA estimates, and
// dropping of messages that cannot arrive by their time-to-enact or
// that require in-band connectivity.
package satcom

import (
	"math"

	"minkowski/internal/backoff"
	"minkowski/internal/sim"
)

// Message is one control-plane datagram.
type Message struct {
	// ID is assigned by the gateway.
	ID uint64
	// Dest is the destination node.
	Dest string
	// Size in bytes; the CDPI proxy bit-packs to stay near 1 KiB.
	Size int
	// TTE is the enactment deadline (absolute sim time; 0 = none).
	// The gateway drops messages that cannot arrive by their TTE.
	TTE float64
	// RequiresInBand marks messages the gateway must drop rather
	// than send over satcom (e.g. bulk forwarding-table updates).
	RequiresInBand bool
	// Payload is opaque to the satcom layer.
	Payload interface{}
	// Attempts counts gateway transmission tries (outage requeues).
	Attempts int
}

// Provider is one satellite messaging service.
type Provider struct {
	// Name labels the provider ("geo", "leo").
	Name string
	// MinOneWayS is the floor one-way latency.
	MinOneWayS float64
	// MedianExtraS is the median of the lognormal latency component
	// added to the floor.
	MedianExtraS float64
	// Sigma is the lognormal shape (tail heaviness).
	Sigma float64
	// PerNodeIntervalS is the minimum spacing between messages to
	// the same balloon (the ~1 msg/min/balloon limit).
	PerNodeIntervalS float64

	// nextFree[node] is when the provider can next transmit to a
	// node.
	nextFree map[string]float64
}

// DefaultProviders returns the two services: a LEO IoT network
// (lower floor, moderate tail) and a GEO network (higher floor,
// heavier tail). Their combination reproduces the paper's combined
// RTT distribution.
func DefaultProviders() []*Provider {
	return []*Provider{
		{
			Name: "leo", MinOneWayS: 10, MedianExtraS: 28, Sigma: 1.0,
			PerNodeIntervalS: 60, nextFree: map[string]float64{},
		},
		{
			Name: "geo", MinOneWayS: 15, MedianExtraS: 45, Sigma: 1.15,
			PerNodeIntervalS: 60, nextFree: map[string]float64{},
		},
	}
}

// drawOneWay samples a one-way delivery latency.
func (p *Provider) DrawOneWay(rng interface{ NormFloat64() float64 }) float64 {
	return p.MinOneWayS + p.MedianExtraS*math.Exp(p.Sigma*rng.NormFloat64())
}

// expectedOneWay is the provider's typical latency used for ETA
// estimates (the gateway does NOT know the queue depth downstream —
// one of the paper's explicit pain points).
func (p *Provider) expectedOneWay() float64 {
	return p.MinOneWayS + p.MedianExtraS
}

// Gateway is the satcom message relay service: the TS-SDN submits
// messages; the gateway picks the provider with the lowest expected
// delivery time, applies rate limits and TTE-based drops, and
// delivers.
type Gateway struct {
	eng       *sim.Engine
	providers []*Provider

	// Deliver is invoked when a message reaches its destination
	// node's satcom modem.
	Deliver func(m *Message)
	// OnDrop is invoked when the gateway discards a message (TTE
	// infeasible or requires in-band). The production system had no
	// such prompt notification — the TS-SDN relied on timeouts — so
	// the default frontend ignores it; the ablation benches wire it
	// up to measure what notification would have saved.
	OnDrop func(m *Message, why string)

	// Retry governs requeues while every provider is in outage
	// (capped exponential + seeded jitter; the unified fleet policy).
	Retry backoff.Policy

	// down marks providers in outage (chaos-injected or scheduled
	// maintenance); down providers accept no new transmissions but
	// in-flight messages still arrive.
	down map[string]bool

	nextID uint64
	// Counters.
	Sent, Dropped, Delivered, Requeued uint64
}

// NewGateway creates a gateway over the given providers.
func NewGateway(eng *sim.Engine, providers []*Provider) *Gateway {
	if len(providers) == 0 {
		panic("satcom: need at least one provider")
	}
	for _, p := range providers {
		if p.nextFree == nil {
			p.nextFree = map[string]float64{}
		}
	}
	return &Gateway{
		eng: eng, providers: providers,
		Retry: backoff.Policy{BaseS: 30, CapS: 600, Mult: 2, JitterFrac: 0.2, MaxAttempts: 8},
		down:  map[string]bool{},
	}
}

// Providers returns the gateway's providers, in the order given to
// NewGateway.
func (g *Gateway) Providers() []*Provider { return g.providers }

// SetProviderDown starts or ends a provider outage ("all" targets
// every provider — the both-services-dark scenario of §4.1).
func (g *Gateway) SetProviderDown(name string, isDown bool) {
	if name == "all" {
		for _, p := range g.providers {
			g.down[p.Name] = isDown
		}
		return
	}
	g.down[name] = isDown
}

// Available reports whether at least one provider can transmit — the
// CDPI frontend falls back to in-band-only TTE selection when false.
func (g *Gateway) Available() bool {
	for _, p := range g.providers {
		if !g.down[p.Name] {
			return true
		}
	}
	return false
}

// Send submits a message. Returns the assigned message ID and whether
// the gateway accepted it (false = dropped immediately). During a
// full outage the message is queued and retried on the gateway's
// backoff policy until a provider returns or its TTE becomes
// infeasible.
func (g *Gateway) Send(m *Message) (uint64, bool) {
	g.nextID++
	m.ID = g.nextID
	if m.RequiresInBand {
		g.drop(m, "requires-in-band")
		return m.ID, false
	}
	return m.ID, g.transmit(m)
}

// transmit performs one transmission attempt (initial or requeued).
func (g *Gateway) transmit(m *Message) bool {
	m.Attempts++
	// Choose the available provider with the lowest expected delivery
	// time given per-node rate limiting.
	now := g.eng.Now()
	var best *Provider
	bestETA := math.Inf(1)
	for _, p := range g.providers {
		if g.down[p.Name] {
			continue
		}
		txAt := math.Max(now, p.nextFree[m.Dest])
		eta := txAt + p.expectedOneWay()
		if eta < bestETA {
			bestETA = eta
			best = p
		}
	}
	if best == nil {
		return g.requeue(m)
	}
	// TTE feasibility on the *estimate* (queue-blind: the actual
	// draw may still miss the TTE — that failure mode is real).
	if m.TTE > 0 && bestETA > m.TTE {
		g.drop(m, "tte-infeasible")
		return false
	}
	txAt := math.Max(now, best.nextFree[m.Dest])
	best.nextFree[m.Dest] = txAt + best.PerNodeIntervalS
	oneWay := best.DrawOneWay(g.eng.RNG("satcom-" + best.Name))
	g.Sent++
	g.eng.At(txAt+oneWay, func() {
		g.Delivered++
		if g.Deliver != nil {
			g.Deliver(m)
		}
	})
	return true
}

// requeue schedules a retry during a full outage, or drops the
// message once its TTE or the retry budget is unreachable.
func (g *Gateway) requeue(m *Message) bool {
	if g.Retry.Exhausted(m.Attempts) {
		g.drop(m, "no-provider")
		return false
	}
	delay := g.Retry.Delay(m.Attempts, g.eng.RNG("satcom-requeue"))
	if m.TTE > 0 && g.eng.Now()+delay > m.TTE {
		g.drop(m, "no-provider")
		return false
	}
	g.Requeued++
	g.eng.After(delay, func() { g.transmit(m) })
	return true
}

func (g *Gateway) drop(m *Message, why string) {
	g.Dropped++
	if g.OnDrop != nil {
		g.OnDrop(m, why)
	}
}
