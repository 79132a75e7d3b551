package main

import (
	"bytes"
	"testing"
)

// TestOutputDeterministic: one seed, one output. AODV once re-armed
// same-instant re-discoveries in map order, which moved its loss draws
// and its byte count from run to run.
func TestOutputDeterministic(t *testing.T) {
	var want bytes.Buffer
	run(&want)
	for i := 0; i < 2; i++ {
		var got bytes.Buffer
		run(&got)
		if got.String() != want.String() {
			t.Fatalf("run %d differs from the first:\n%s\nwant:\n%s", i+2, got.String(), want.String())
		}
	}
}
