package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func loadRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// quartiles returns the first, second and third quartile of vs as
// Python's statistics.quantiles(vs, n=4) gives them (the driver's
// definition of spread). It needs at least two values.
func quartiles(vs []float64) [3]float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	const n = 4
	m := len(s) + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q
}

// sameBits is the identity simulated values are compared by: a run that
// repeats exactly repeats bit for bit, and nothing looser counts.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// series collects one workload's untraced values of a metric.
func series(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload == workload && !r.Trace {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// verdict judges B against A for one metric by the benchmark's own
// bound: regressed when B's median is worse by more than the bound;
// unresolved when it is not, but A's own spread is wider than the
// bound and the two sets of runs interleave; ok otherwise.
func verdict(d metricDef, a, b []float64) (medA, medB, worseBy, spread float64, v string) {
	medA, medB = quantile(a, 0.5), quantile(b, 0.5)
	if len(a) >= 2 {
		q := quartiles(a)
		medA = q[1]
		spread = ratio(q[2]-q[0], medA)
	}
	if len(b) >= 2 {
		medB = quartiles(b)[1]
	}
	worseBy = ratio(medB-medA, medA)
	allBetter := quantile(b, 1) < quantile(a, 0)
	if d.higher {
		worseBy = -worseBy
		allBetter = quantile(b, 0) > quantile(a, 1)
	}
	switch {
	case worseBy > d.bound:
		v = "regressed"
	case spread > d.bound && !allBetter:
		v = "unresolved"
	default:
		v = "ok"
	}
	return
}

func failShare(recs []record, workload string) (share float64, runs int) {
	attempted, failed := 0, 0
	for _, r := range recs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
			runs++
		}
	}
	return ratio(float64(failed), float64(attempted)), runs
}

// compare prints one row per workload x end-to-end metric for two sets
// of runs (A the base, B the change), then the failed-operation shares
// and any exact-count per-layer metric that differs between traced
// runs of the same workload and seed. It returns the exit code: 1 on a
// regressed row or a higher fail share.
func compare(w io.Writer, pathA, pathB string) int {
	a, err := loadRecords(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e compare:", err)
		return 2
	}
	b, err := loadRecords(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e compare:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-22s %14s %14s %9s %7s %8s  %s\n",
		"workload", "metric", "median A (n)", "median B (n)", "worse by", "bound", "spread A", "verdict")
	for _, s := range workloads {
		for _, d := range endToEnd {
			va, vb := series(a, s.name, d.name), series(b, s.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB, worseBy, spread, v := verdict(d, va, vb)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-22s %9.5g (%2d) %9.5g (%2d) %+8.2f%% %6.0f%% %7.2f%%  %s\n",
				s.name, d.name, medA, len(va), medB, len(vb), 100*worseBy, 100*d.bound, 100*spread, v)
		}
		fa, na := failShare(a, s.name)
		fb, nb := failShare(b, s.name)
		if na > 0 && nb > 0 {
			v := "ok"
			if fb > fa {
				v, code = "regressed", 1
			}
			fmt.Fprintf(w, "%-13s %-22s %14.4g %14.4g %35s\n", s.name, "fail_share", fa, fb, v)
		}
	}
	for _, ra := range a {
		for _, rb := range b {
			if !ra.Trace || !rb.Trace || ra.Workload != rb.Workload || ra.Seed != rb.Seed {
				continue
			}
			for _, d := range perLayer {
				if d.exact && !sameBits(ra.Metrics[d.name], rb.Metrics[d.name]) {
					fmt.Fprintf(w, "%-13s seed %d exact count differs: %s %v vs %v (core.digests_distinct %v / %v)\n",
						ra.Workload, ra.Seed, d.name, ra.Metrics[d.name], rb.Metrics[d.name],
						ra.Metrics["core.digests_distinct"], rb.Metrics["core.digests_distinct"])
				}
			}
		}
	}
	return code
}
