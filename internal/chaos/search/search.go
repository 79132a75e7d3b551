package search

import (
	"fmt"
	"math/rand"
	"sort"
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
	// Guided turns on the elite-pool mutation loop: trials run in
	// fixed-size batches, and within a batch every other trial is a
	// mutation of a low-margin elite instead of a fresh grammar sample
	// (subject to MutateBudget and the pool being non-empty). Still
	// fully deterministic in the config, regardless of Workers.
	Guided bool
	// MutateBudget caps how many trials may be mutants (default
	// Trials/2 when guided; ignored otherwise).
	MutateBudget int
}

// Guided-mode shape constants: trials run in batches of guidedBatch
// (the pool only learns between batches, so this bounds how stale a
// mutant's parent can be), and the elite pool keeps the eliteSize
// lowest-margin violation-free scripts seen so far.
const (
	guidedBatch = 8
	eliteSize   = 8
)

// mutSeedSalt decorrelates the mutation-decision RNG from the
// generation RNG that shares mixSeed(Seed, trial).
const mutSeedSalt = 0x6d757461 // "muta"

// TrialResult is one trial's outcome.
type TrialResult struct {
	Trial int    `json:"trial"`
	Seed  int64  `json:"seed"`
	Error string `json:"error,omitempty"`
	// Script is the generated script.
	Script Script `json:"script"`
	// Op records how the script came to be in a guided campaign:
	// "fresh" for grammar samples, a mutation operator name for
	// mutants. Empty in blind campaigns.
	Op string `json:"op,omitempty"`
	// Parents are the elite trial indices a mutant derived from (the
	// parent, plus the donor for splice).
	Parents []int `json:"parents,omitempty"`
	// Violations found on the generated script.
	Violations []Violation `json:"violations,omitempty"`
	// Margins is the run's per-invariant distance to violation (see
	// Result.Margins) — the fitness evidence guided mode selects on.
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
	// Guided campaign evidence.
	Guided       bool `json:"guided,omitempty"`
	MutateBudget int  `json:"mutateBudget,omitempty"`
	// Mutants counts trials that actually ran a mutated script.
	Mutants int `json:"mutants,omitempty"`
	// MinMargins is the campaign-wide minimum margin seen per invariant
	// (blind campaigns report it too — it is the baseline a guided
	// campaign is judged against).
	MinMargins map[string]float64 `json:"minMargins,omitempty"`
	// MarginHist buckets every per-trial margin observation into the
	// fixed bins described by MarginBins (bin edges; observations
	// outside [-1, 1] clamp into the end bins).
	MarginBins []float64        `json:"marginBins,omitempty"`
	MarginHist map[string][]int `json:"marginHist,omitempty"`
	// EliteHistory snapshots the elite pool after each guided batch
	// (trial index + score), the campaign's convergence trace.
	EliteHistory [][]EliteEntry `json:"eliteHistory,omitempty"`
}

// EliteEntry is one elite-pool member in a report snapshot.
type EliteEntry struct {
	Trial int     `json:"trial"`
	Score float64 `json:"score"`
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
	if cfg.Guided && cfg.MutateBudget <= 0 {
		cfg.MutateBudget = cfg.Trials / 2
	}
	results := make([]TrialResult, cfg.Trials)

	// Phase 1: run every script — all fresh samples when blind, the
	// elite-pool alternation when guided.
	var eliteHistory [][]EliteEntry
	if cfg.Guided {
		eliteHistory = runGuided(cfg, results)
	} else {
		parallel(cfg.Workers, cfg.Trials, func(i int) {
			results[i] = runTrial(cfg, i)
		})
	}

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
		Guided:      cfg.Guided, EliteHistory: eliteHistory,
	}
	if cfg.Guided {
		rep.MutateBudget = cfg.MutateBudget
	}
	for _, k := range cfg.Kinds {
		rep.Kinds = append(rep.Kinds, k.String())
	}
	rep.MinMargins = map[string]float64{}
	rep.MarginHist = map[string][]int{}
	for _, e := range marginBinEdges() {
		rep.MarginBins = append(rep.MarginBins, e)
	}
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
		if r.Op != "" && r.Op != opFresh {
			rep.Mutants++
		}
		// Margin aggregation is min/count per invariant — commutative,
		// so map iteration order cannot affect the outcome.
		for inv, m := range r.Margins {
			if cur, ok := rep.MinMargins[inv]; !ok || m < cur {
				rep.MinMargins[inv] = m
			}
			h := rep.MarginHist[inv]
			if h == nil {
				h = make([]int, marginBinCount)
				rep.MarginHist[inv] = h
			}
			h[marginBin(m)]++
		}
	}
	return rep
}

// Margin histogram shape: fixed bins over [-1, 1] so reports from
// different campaigns are directly comparable; out-of-range
// observations clamp into the end bins.
const marginBinCount = 10

func marginBinEdges() []float64 {
	edges := make([]float64, marginBinCount+1)
	for i := range edges {
		edges[i] = -1 + float64(i)*2/marginBinCount
	}
	return edges
}

func marginBin(m float64) int {
	b := int((m + 1) / (2.0 / marginBinCount))
	if b < 0 {
		b = 0
	}
	if b >= marginBinCount {
		b = marginBinCount - 1
	}
	return b
}

// runGuided is guided mode's phase 1: trials run in guidedBatch-sized
// batches; within a batch, odd trial offsets become mutants of elites
// when the pool is warm and budget remains, everything else stays a
// fresh grammar sample. Mutation decisions are derived sequentially
// (pool state + per-trial seeded RNG) before the batch runs in
// parallel, and the pool updates sequentially in trial order after the
// batch — so results are worker-invariant and deterministic in the
// config. Returns the per-batch elite-pool snapshots.
func runGuided(cfg SearchConfig, results []TrialResult) [][]EliteEntry {
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = chaos.Kinds()
	}
	type elite struct {
		trial  int
		script Script
		score  float64
	}
	type plan struct {
		fresh   bool
		script  Script
		op      string
		parents []int
	}
	var pool []elite
	var history [][]EliteEntry
	budget := cfg.MutateBudget
	for start := 0; start < cfg.Trials; start += guidedBatch {
		end := start + guidedBatch
		if end > cfg.Trials {
			end = cfg.Trials
		}
		plans := make([]plan, end-start)
		for i := start; i < end; i++ {
			p := plan{fresh: true}
			if i%2 == 1 && len(pool) > 0 && budget > 0 {
				mrng := rand.New(rand.NewSource(mixSeed(cfg.Seed, i) ^ mutSeedSalt))
				parent := pool[mrng.Intn(len(pool))]
				var donor *Script
				donorTrial := -1
				if len(pool) > 1 {
					d := pool[mrng.Intn(len(pool))]
					if d.trial != parent.trial {
						donor, donorTrial = &d.script, d.trial
					}
				}
				if child, op, ok := mutate(mrng, parent.script, donor, kinds); ok {
					budget--
					child.Name = fmt.Sprintf("mut-%d-%s", i, op)
					p = plan{script: child, op: op, parents: []int{parent.trial}}
					if op == opSplice && donorTrial >= 0 {
						p.parents = append(p.parents, donorTrial)
					}
				}
			}
			plans[i-start] = p
		}
		base := start
		parallel(cfg.Workers, end-start, func(j int) {
			i := base + j
			if plans[j].fresh {
				results[i] = runTrial(cfg, i)
				results[i].Op = opFresh
				return
			}
			results[i] = runScript(cfg, i, plans[j].script)
			results[i].Op = plans[j].op
			results[i].Parents = plans[j].parents
		})
		// Pool update: violation-free, error-free trials with margin
		// evidence compete on their worst (minimum) margin.
		for i := start; i < end; i++ {
			r := &results[i]
			if r.Error != "" || len(r.Violations) > 0 || len(r.Margins) == 0 {
				continue
			}
			score := 0.0
			first := true
			for _, m := range r.Margins { // min: order-independent
				if first || m < score {
					score, first = m, false
				}
			}
			pool = append(pool, elite{trial: i, script: r.Script, score: score})
		}
		// Strict-weak order on (score, trial): only < comparisons, so
		// bit-equal scores deterministically fall through to the trial
		// index tie-break.
		sort.Slice(pool, func(a, b int) bool {
			if pool[a].score < pool[b].score {
				return true
			}
			if pool[b].score < pool[a].score {
				return false
			}
			return pool[a].trial < pool[b].trial
		})
		if len(pool) > eliteSize {
			pool = pool[:eliteSize]
		}
		snap := make([]EliteEntry, len(pool))
		for i, e := range pool {
			snap[i] = EliteEntry{Trial: e.trial, Score: e.score}
		}
		history = append(history, snap)
	}
	return history
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
	return runScript(cfg, trial, script)
}

// runScript runs one already-built script as trial (shared by fresh
// trials and guided mutants — a mutant keeps its parent's Script.Seed,
// so it replays the parent's world with a perturbed fault schedule).
func runScript(cfg SearchConfig, trial int, script Script) TrialResult {
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
