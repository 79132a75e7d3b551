package search

import (
	"math/rand"
	"strings"
	"sync"

	"minkowski/internal/chaos"
	"minkowski/internal/obs"
)

// SearchConfig parameterizes a search campaign.
type SearchConfig struct {
	// Seed is the master seed; trial i derives its own seed from it.
	Seed int64
	// Trials is the number of independent generated scripts.
	Trials int
	// Scale is the fleet scale (1..3).
	Scale int
	// Hours is each trial's simulated duration (default 3).
	Hours float64
	// Workers bounds concurrent trials (default 4). Parallelism never
	// changes results: each trial is seeded independently and results
	// are indexed by trial.
	Workers int
	// Opts are the per-run options (PreFix). Determinism checking is
	// always on for trials.
	Opts Options
	// ShrinkBudget caps candidate runs per shrink (default
	// DefaultShrinkBudget).
	ShrinkBudget int
	// Kinds restricts the grammar to these fault kinds (empty = all).
	Kinds []chaos.Kind
}

// TrialResult is one trial's outcome.
type TrialResult struct {
	Trial int    `json:"trial"`
	Seed  int64  `json:"seed"`
	Error string `json:"error,omitempty"`
	// Script is the generated script.
	Script Script `json:"script"`
	// Violations found on the generated script.
	Violations []Violation `json:"violations,omitempty"`
	// Margins is the run's per-invariant distance to violation (see
	// Result.Margins).
	Margins map[string]float64 `json:"margins,omitempty"`
	// Flight is the flight-recorder black box captured at the first
	// violation (see Result.Flight); Obs is the violating run's final
	// metrics snapshot. Both nil on clean trials.
	Flight *obs.FlightDump `json:"flight,omitempty"`
	Obs    *obs.Snapshot   `json:"obs,omitempty"`
	// Signature groups violating trials for corpus triage: the
	// violated invariant plus the first fault kind plausibly involved.
	// Only one representative per signature is shrunk.
	Signature string `json:"signature,omitempty"`
	// SkippedAsDuplicate marks a violating trial whose signature was
	// already claimed by an earlier trial; DuplicateOf names that
	// trial. Duplicates spend no shrink budget.
	SkippedAsDuplicate bool `json:"skippedAsDuplicate,omitempty"`
	DuplicateOf        int  `json:"duplicateOf,omitempty"`
	// Shrunk is the minimized reproducer for the first violated
	// invariant, when this trial represents its signature and
	// shrinking succeeded.
	Shrunk *Script `json:"shrunk,omitempty"`
	// ShrinkRuns counts simulations the shrink spent.
	ShrinkRuns int `json:"shrinkRuns,omitempty"`
}

// Report is the whole campaign's outcome (the chaosearch JSON).
type Report struct {
	Seed      int64         `json:"seed"`
	Trials    int           `json:"trials"`
	Scale     int           `json:"scale"`
	Hours     float64       `json:"hours"`
	PreFix    bool          `json:"preFix"`
	Kinds     []string      `json:"kinds,omitempty"`
	Results   []TrialResult `json:"results"`
	Violating int           `json:"violating"`
	Shrunk    int           `json:"shrunk"`
	// DedupGroups counts distinct violation signatures; DedupSkipped
	// counts violating trials skipped as duplicates of an earlier
	// trial's signature (shrink budget saved).
	DedupGroups  int      `json:"dedupGroups"`
	DedupSkipped int      `json:"dedupSkipped"`
	Invariants   []string `json:"invariants"`
	// MinMargins is the campaign-wide minimum margin seen per
	// invariant: each campaign's closest approach to every invariant.
	MinMargins map[string]float64 `json:"minMargins,omitempty"`
}

// mixSeed derives trial i's seed from the master seed (splitmix64
// finalizer: adjacent trials land far apart in seed space).
func mixSeed(master int64, trial int) int64 {
	z := uint64(master) + 0x9e3779b97f4a7c15*uint64(trial+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & 0x7fffffffffffffff)
}

// violationSignature triages a violation for corpus dedup: the
// invariant name joined with the kind of the LAST fault injected at or
// before the violation fired — the most recent event that can have
// contributed, and overwhelmingly the actual trigger. (Attributing to
// the FIRST such fault — an earlier bug — let a benign early decoy
// fault claim the signature and split one root cause across groups.)
// Ties on At keep the later-listed fault, matching the injector's
// stable ordering. Two trials tripping the same invariant off the same
// trigger kind are near-certain duplicates of one root cause;
// shrinking both wastes the budget.
func violationSignature(s Script, v Violation) string {
	kind := ""
	bestAt := -1.0
	for _, f := range s.Faults {
		if f.At <= v.At && f.At >= bestAt {
			kind = f.Kind
			bestAt = f.At
		}
	}
	if kind == "" && len(s.Faults) > 0 {
		kind = s.Faults[0].Kind
	}
	return strings.Join([]string{v.Invariant, kind}, "|")
}

// Search runs the campaign in three phases: every generated script is
// executed with the invariant suite (determinism check included);
// violating trials are triaged by signature so each distinct
// (invariant, trigger-kind) pair gets exactly one representative; and
// only the representatives are delta-debug shrunk. Deterministic in
// (Seed, Trials, Scale, Hours, Opts, Kinds) regardless of Workers.
func Search(cfg SearchConfig) Report {
	if cfg.Hours <= 0 {
		cfg.Hours = 3
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	results := make([]TrialResult, cfg.Trials)

	// Phase 1: run every script.
	parallel(cfg.Workers, cfg.Trials, func(i int) {
		results[i] = runTrial(cfg, i)
	})

	// Phase 2: triage — group violating trials by signature, lowest
	// trial index representing each group (sequential, trivially
	// cheap, order-deterministic).
	repFor := map[string]int{}
	var reps []int
	for i := range results {
		r := &results[i]
		if r.Error != "" || len(r.Violations) == 0 {
			continue
		}
		r.Signature = violationSignature(r.Script, r.Violations[0])
		if first, seen := repFor[r.Signature]; seen {
			r.SkippedAsDuplicate = true
			r.DuplicateOf = first
			continue
		}
		repFor[r.Signature] = i
		reps = append(reps, i)
	}

	// Phase 3: shrink one representative per signature.
	parallel(cfg.Workers, len(reps), func(k int) {
		shrinkTrial(cfg, &results[reps[k]])
	})

	rep := Report{
		Seed: cfg.Seed, Trials: cfg.Trials, Scale: cfg.Scale,
		Hours: cfg.Hours, PreFix: cfg.Opts.PreFix,
		Results: results, Invariants: Invariants(),
		DedupGroups: len(reps),
	}
	for _, k := range cfg.Kinds {
		rep.Kinds = append(rep.Kinds, k.String())
	}
	rep.MinMargins = map[string]float64{}
	for _, r := range results {
		if len(r.Violations) > 0 {
			rep.Violating++
		}
		if r.SkippedAsDuplicate {
			rep.DedupSkipped++
		}
		if r.Shrunk != nil {
			rep.Shrunk++
		}
		// Margin aggregation is a min per invariant — commutative,
		// so map iteration order cannot affect the outcome.
		for inv, m := range r.Margins {
			if cur, ok := rep.MinMargins[inv]; !ok || m < cur {
				rep.MinMargins[inv] = m
			}
		}
	}
	return rep
}

// parallel runs fn(0..n-1) across at most workers goroutines.
func parallel(workers, n int, fn func(int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}()
	}
	wg.Wait()
}

// runTrial generates and runs one trial (no shrinking — that happens
// after triage, for signature representatives only).
func runTrial(cfg SearchConfig, trial int) TrialResult {
	seed := mixSeed(cfg.Seed, trial)
	rng := rand.New(rand.NewSource(seed))
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = chaos.Kinds()
	}
	script := GenerateKinds(rng, seed, cfg.Scale, cfg.Hours, kinds)
	tr := TrialResult{Trial: trial, Seed: script.Seed, Script: script}

	opts := cfg.Opts
	opts.CheckDeterminism = true
	res, err := Run(script, opts)
	if err != nil {
		tr.Error = err.Error()
		return tr
	}
	tr.Violations = res.Violations
	tr.Margins = res.Margins
	tr.Flight = res.Flight
	tr.Obs = res.Obs
	return tr
}

// shrinkTrial minimizes a representative trial's script in place.
func shrinkTrial(cfg SearchConfig, tr *TrialResult) {
	inv := tr.Violations[0].Invariant
	shrunk, runs, err := Shrink(tr.Script, inv, cfg.Opts, cfg.ShrinkBudget)
	tr.ShrinkRuns = runs
	if err != nil {
		tr.Error = err.Error()
		return
	}
	tr.Shrunk = &shrunk
}
