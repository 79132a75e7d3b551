package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputGolden pins the lab's stdout to the bytes committed in
// testdata/stdout.txt: availability, repair times and control-plane
// bytes of all four protocols. Regenerate it only for a change that
// means to move them:
//
//	go run ./examples/manetlab > testdata/stdout.txt
func TestOutputGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	run(&got)
	if got.String() != string(want) {
		t.Fatalf("output differs from testdata/stdout.txt:\n%s\nwant:\n%s", got.String(), want)
	}
}

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
