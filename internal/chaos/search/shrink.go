package search

import (
	"errors"
	"fmt"

	"minkowski/internal/chaos"
)

// ShrinkBudget caps the number of candidate executions one shrink may
// spend (each candidate is a full simulation).
const DefaultShrinkBudget = 120

// Shrink delta-debugs a violating script down to a locally minimal
// reproducer: no single fault can be removed, no duration halved, no
// start time halved, the run not shortened, and the scale not lowered
// without losing the violation. The result is deterministic in
// (script, invariant, opts).
//
// It returns the shrunk script and the number of candidate runs
// spent. The input script must violate the named invariant under
// opts; if it doesn't, it is returned unchanged.
func Shrink(s Script, invariant string, opts Options, budget int) (Script, int, error) {
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	// Shrinking a determinism violation needs the double-run check;
	// everything else runs single for speed.
	opts.CheckDeterminism = invariant == InvDeterminism

	spent := 0
	violates := func(cand Script) (bool, error) {
		if spent >= budget {
			return false, nil // budget exhausted: treat as not reproducing
		}
		spent++
		res, err := Run(cand, opts)
		if err != nil {
			return false, err
		}
		return res.Violated(invariant), nil
	}

	ok, err := violates(s)
	if err != nil {
		return s, spent, err
	}
	if !ok {
		return s, spent, fmt.Errorf("script does not violate %q under the given options", invariant)
	}

	cur := s.Clone()
	improved := true
	for improved && spent < budget {
		improved = false

		// Pass 1: drop whole faults (1-minimal on the fault set).
		for i := 0; i < len(cur.Faults) && spent < budget; i++ {
			cand := cur.Clone()
			cand.Faults = append(cand.Faults[:i:i], cand.Faults[i+1:]...)
			if len(cand.Faults) == 0 {
				continue
			}
			if ok, err := violates(cand); err != nil {
				return cur, spent, err
			} else if ok {
				cur = cand
				improved = true
				i-- // the next fault shifted into this slot
			}
		}

		// Pass 2: halve durations toward the floor.
		for i := range cur.Faults {
			for spent < budget && cur.Faults[i].Duration > genMinDurS {
				cand := cur.Clone()
				cand.Faults[i].Duration /= 2
				if cand.Faults[i].Duration < genMinDurS {
					cand.Faults[i].Duration = genMinDurS
				}
				if ok, err := violates(cand); err != nil {
					return cur, spent, err
				} else if !ok {
					break
				}
				cur = cand
				improved = true
			}
		}

		// Pass 3: pull start times earlier (halving toward the floor)
		// so the tail of the run can be trimmed.
		for i := range cur.Faults {
			for spent < budget && cur.Faults[i].At > genMinAtS {
				cand := cur.Clone()
				cand.Faults[i].At /= 2
				if cand.Faults[i].At < genMinAtS {
					cand.Faults[i].At = genMinAtS
				}
				if ok, err := violates(cand); err != nil {
					return cur, spent, err
				} else if !ok {
					break
				}
				cur = cand
				improved = true
			}
		}

		// Pass 4: trim the run to the last fault's end plus an
		// observation tail.
		if spent < budget {
			end := 0.0
			for _, f := range cur.Faults {
				if e := f.At + f.Duration; e > end {
					end = e
				}
			}
			hours := (end + 2*genTailS) / 3600
			// Round up to a 0.5 h grid so repros stay readable.
			hours = float64(int(hours*2)+1) / 2
			if hours < cur.Hours {
				cand := cur.Clone()
				cand.Hours = hours
				if ok, err := violates(cand); err != nil {
					return cur, spent, err
				} else if ok {
					cur = cand
					improved = true
				}
			}
		}

		// Pass 5: lower the scale.
		for spent < budget && cur.Scale > 1 {
			cand := cur.Clone()
			cand.Scale--
			if ok, err := violates(cand); errors.Is(err, chaos.ErrNoNode) {
				break // the smaller fleet lacks a node the script names
			} else if err != nil {
				return cur, spent, err
			} else if !ok {
				break
			}
			cur = cand
			improved = true
		}
	}

	cur.Violates = invariant
	return cur, spent, nil
}
