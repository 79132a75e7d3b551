package detrand_test

import (
	"go/ast"
	"path/filepath"
	"strings"
	"testing"

	"minkowski/internal/analysis/detrand"
	"minkowski/internal/analysis/vet"
)

func TestDetrand(t *testing.T) {
	vet.RunWant(t, detrand.Analyzer, "detrandtest")
}

// TestCallChainSinks checks that each sink buried below an entry point
// (two calls down, in a helper, in a goroutine literal) is reported at
// the sink, and that the chain above it is not.
func TestCallChainSinks(t *testing.T) {
	vet.RunWant(t, detrand.Analyzer, "chaintest")
}

// TestMidChainGOMAXPROCSRegression pins the bug class that motivated
// site-level GOMAXPROCS checks: a worker-count helper consulted during
// an in-flight solve (Hot → shard → workers) must be reported at its
// runtime.GOMAXPROCS read. If this test fails, the mid-solve
// re-sharding regression can return unseen.
func TestMidChainGOMAXPROCSRegression(t *testing.T) {
	root, err := vet.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := vet.NewLoader(root).LoadDir("chaintest", filepath.Join("testdata", "src", "chaintest"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := vet.Run(detrand.Analyzer, pkg)
	if err != nil {
		t.Fatal(err)
	}
	var workers *ast.FuncDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "workers" {
				workers = fn
			}
		}
	}
	if workers == nil {
		t.Fatal("chaintest declares no workers function")
	}
	var got strings.Builder
	for _, d := range diags {
		if strings.Contains(d.Message, "runtime.GOMAXPROCS") && workers.Pos() <= d.Pos && d.Pos < workers.End() {
			return
		}
		got.WriteString(pkg.Fset.Position(d.Pos).String() + ": " + d.Message + "\n")
	}
	t.Fatalf("no diagnostic flags the GOMAXPROCS read in workers; got:\n%s", got.String())
}

func TestPackageFilter(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"minkowski/internal/sim", true},
		{"minkowski/internal/linkeval", true},
		{"minkowski", false},
		{"minkowski/cmd/figures", false},
		{"minkowski/internal/analysis/vet", false},
	}
	for _, c := range cases {
		if got := detrand.Analyzer.PackageFilter(c.path); got != c.want {
			t.Errorf("PackageFilter(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
