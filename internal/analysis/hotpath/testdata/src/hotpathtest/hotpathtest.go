// Package hotpathtest exercises the hotpath analyzer.
package hotpathtest

import (
	"fmt"
	"sort"
)

// notAnnotated is allocation-heavy but unannotated: ignored.
func notAnnotated(xs []int) string {
	out := []int{}
	for _, x := range xs {
		out = append(out, x)
	}
	return fmt.Sprint(out)
}

// fanOut is the annotated fan-out.
//
//minkowski:hotpath
func fanOut(xs []int) int {
	_ = fmt.Sprintf("pair %d", len(xs)) // want `hot path calls fmt\.Sprintf`
	var fresh []int
	fresh = append(fresh, 1) // want `appends to fresh, a fresh slice with no capacity hint`
	sized := make([]int, 0, len(xs))
	sized = append(sized, 2) // capacity hint: fine
	empty := []int{}
	empty = append(empty, 3) // want `appends to empty, a fresh slice with no capacity hint`
	zeroMake := make([]int, 0)
	zeroMake = append(zeroMake, 4) // want `appends to zeroMake, a fresh slice with no capacity hint`
	return len(fresh) + len(sized) + len(empty) + len(zeroMake)
}

// perCallMaps is manet.PathFrom's old shape: a visited set built on
// every call.
//
//minkowski:hotpath
func perCallMaps(path []string, index map[string]int) bool {
	seen := map[string]bool{}               // want `builds a map per call`
	memo := make(map[string]int, len(path)) // want `builds a map per call`
	for _, p := range path {
		if seen[p] {
			return false
		}
		seen[p] = true
		memo[p] = index[p] // reading a caller-owned map: fine
	}
	return len(memo) > 0
}

func sink(v interface{}) {}

func typed(v int) {}

// boxing passes scalars into interface parameters.
//
//minkowski:hotpath
func boxing(x int, f float64) {
	sink(x)       // want `scalar int is boxed into interface\{\}`
	sink(f)       // want `scalar float64 is boxed into interface\{\}`
	sink("label") // strings are not scalars under this check: fine
	typed(x)      // concrete parameter: fine
}

// appendToParam grows a caller-owned slice: the caller chose the
// capacity, so this is fine.
//
//minkowski:hotpath
func appendToParam(buf []int, x int) []int {
	return append(buf, x)
}

// loopClosures allocates one closure per iteration.
//
//minkowski:hotpath
func loopClosures(groups [][]int) {
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] }) // want `closure captures loop variable g`
	}
	for i := 0; i < len(groups); i++ {
		f := func() int { return i } // want `closure captures loop variable i`
		_ = f()
	}
	cmp := func(a, b int) bool { return a < b } // hoisted, captures nothing: fine
	for _, g := range groups {
		_ = g
		_ = cmp
	}
}

// justified documents a deliberate exception.
//
//minkowski:hotpath
func justified(groups [][]int) {
	for _, g := range groups {
		//minkowski:hotpath-ok per-epoch setup, not per-pair; sort needs the closure
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	}
}
