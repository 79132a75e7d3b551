// Package memokeys exercises floateq inside an allowlisted memo-key
// package: annotated comparisons pass, unannotated ones are still
// findings, and an empty justification is rejected.
package memokeys

type lla struct{ Lat, Lon, Alt float64 }

type entry struct {
	pA, pB lla
	lead   float64
}

func memoHit(ent *entry, uPos, vPos lla, lead float64) bool {
	//minkowski:floateq-ok memo entries are valid only at bit-identical endpoint positions
	if ent.pA == uPos && ent.pB == vPos {
		//minkowski:floateq-ok memoized evaluations are lead-specific
		return ent.lead == lead
	}
	return false
}

func unannotated(a, b float64) bool {
	return a == b // want `if this is a memo-key comparison, annotate`
}

func emptyJustification(a, b float64) bool {
	//minkowski:floateq-ok
	return a == b // want `requires a justification`
}
