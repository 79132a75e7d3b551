package main

import (
	"bytes"
	"strings"
	"testing"

	"minkowski/internal/analysis/vet"
)

// TestTreeVetsClean holds the module to the analyzer suite's merge bar
// — zero findings, zero type errors — so `go test ./...` alone catches
// a change that would fail `minkowski-vet ./...`.
func TestTreeVetsClean(t *testing.T) {
	var out bytes.Buffer
	list(&out)
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "detrand mapiter floateq"; got != want {
		t.Errorf("-list names %q, want %q", got, want)
	}

	root, err := vet.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	findings, typeErrs, err := vetTree(root, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range typeErrs {
		t.Errorf("type error: %v", terr)
	}
	for _, f := range findings {
		t.Errorf("finding: %v", f)
	}
}
