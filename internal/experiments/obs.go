package experiments

import (
	"encoding/json"

	"minkowski/internal/core"
	"minkowski/internal/obs"
)

// ObsExport runs the canonical base scenario with observability on
// and returns the export artifact as indented JSON: the end-of-run
// metrics snapshot (name-sorted, canonical) plus the retained
// solve-cycle span trees. Deterministic in (Seed, Scale): the bytes
// are identical at every GOMAXPROCS (no span records how the fan-outs
// sharded their work — see internal/obs package docs).
func ObsExport(o Options) ([]byte, error) {
	cfg := baseScenario(o)
	c := core.New(cfg)
	c.RunHours(2 * float64(o.scale()))
	exp := struct {
		Snapshot obs.Snapshot `json:"snapshot"`
		Trees    []*obs.Span  `json:"trees"`
	}{c.ObsSnapshot(), c.ObsTrees()}
	return json.MarshalIndent(exp, "", "  ")
}
