package core

import (
	"hash/fnv"

	"minkowski/internal/cdpi"
	"minkowski/internal/explain"
	"minkowski/internal/geo"
	"minkowski/internal/platform"
)

// byzantineSpoofDistM is how far a byzantine node's position lie
// lands from truth: far enough that any link planned on it points the
// radios at empty sky.
const byzantineSpoofDistM = 250e3

// byzantineMarginSpoofDB is the inflation a byzantine node applies to
// its measured link margins (honest model error is a few dB).
const byzantineMarginSpoofDB = 45

// attachReporter wires an agent's heartbeat state report to the
// node's (possibly byzantine) self-claimed position.
func (c *Controller) attachReporter(a *cdpi.Agent) {
	node := a.Node
	a.StateReport = func() interface{} { return c.reportedPosition(node) }
}

// SetByzantine marks (or clears) a node as byzantine: while set, its
// agent reports spoofed positions and its radios report inflated
// margins.
func (c *Controller) SetByzantine(node string, active bool) {
	if active {
		c.byzantine[node] = true
	} else {
		delete(c.byzantine, node)
	}
}

// reportedPosition is what a node's agent claims in heartbeats: truth
// for honest nodes, a deterministic lie for byzantine ones.
func (c *Controller) reportedPosition(node string) geo.LLA {
	n := c.nodeByID(node)
	if n == nil {
		return geo.LLA{}
	}
	if !c.byzantine[node] {
		return n.Position()
	}
	return spoofPosition(node, n.Position())
}

// spoofPosition is the byzantine lie: a fixed large displacement at a
// node-specific bearing with a bogus altitude. Deterministic so
// seeded runs replay byte-identically.
func spoofPosition(node string, truth geo.LLA) geo.LLA {
	h := fnv.New32a()
	h.Write([]byte(node))
	bearing := geo.Deg(float64(h.Sum32() % 360))
	p := geo.Offset(truth, bearing, byzantineSpoofDistM)
	p.Alt = truth.Alt + 8000
	return p
}

// onPositionReport consumes heartbeat-carried self reports. With the
// guard active, implausible reports quarantine the node (its estimate
// freezes at the last accepted fix); with the guard disabled the
// report is adopted blindly — the pre-fix behaviour that lets a
// byzantine node drag the controller's world model anywhere.
func (c *Controller) onPositionReport(node string, report interface{}) {
	pos, ok := report.(geo.LLA)
	if !ok {
		return
	}
	if c.preFix {
		c.reported[node] = pos
		return
	}
	wasQ := c.PosGuard.Quarantined(node)
	accepted := c.PosGuard.Observe(node, pos, c.Eng.Now())
	if !accepted && !wasQ {
		c.Log.Appendf(c.Eng.Now(), explain.EvAnomaly, node,
			"telemetry quarantine: implausible position report (%.2f,%.2f)",
			geo.ToDeg(pos.Lat), geo.ToDeg(pos.Lon))
	} else if accepted && wasQ {
		c.Log.Append(c.Eng.Now(), explain.EvAnomaly, node,
			"telemetry quarantine lifted: plausible reports resumed")
	}
}

// estimatedPosition is the controller's belief about where a node is
// when telemetry overrides its own model; ok=false means "use the
// model" (ground truth + FMS prediction), which is the case for every
// honest, unquarantined node — so fault-free runs are byte-identical
// to the pre-guard baseline.
func (c *Controller) estimatedPosition(n *platform.Node) (geo.LLA, bool) {
	if c.preFix {
		p, ok := c.reported[n.ID]
		return p, ok
	}
	if c.PosGuard.Quarantined(n.ID) {
		if p, _, ok := c.PosGuard.LastGood(n.ID); ok {
			return p, true
		}
	}
	return geo.LLA{}, false
}

// EstimatedPosition returns the controller's current belief of a
// node's position: the telemetry-derived estimate when one overrides
// the model, otherwise ground truth. ok=false when the node is
// unknown. The chaos search's position-sanity invariant compares this
// against truth.
func (c *Controller) EstimatedPosition(node string) (geo.LLA, bool) {
	n := c.nodeByID(node)
	if n == nil {
		return geo.LLA{}, false
	}
	if p, ok := c.estimatedPosition(n); ok {
		return p, true
	}
	return n.Position(), true
}

// nodeByID resolves a node by ID on the current fleet.
func (c *Controller) nodeByID(id string) *platform.Node {
	if n, ok := c.Fleet.Balloons[id]; ok {
		return n
	}
	for _, g := range c.Fleet.Grounds {
		if g.ID == id {
			return g
		}
	}
	return nil
}
