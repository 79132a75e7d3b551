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
// are identical at every GOMAXPROCS (see internal/obs package docs).
func ObsExport(o Options) ([]byte, error) {
	type export struct {
		Snapshot obs.Snapshot `json:"snapshot"`
		Trees    []*obs.Span  `json:"trees"`
	}
	got := simulate(o, []entry{{hours: 2, worlds: []string{"base"}, extract: func(c *core.Controller) any {
		return export{c.ObsSnapshot(), c.ObsTrees()}
	}}})
	return json.MarshalIndent(got[0][0], "", "  ")
}
