package minkowski

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoAmbientNondeterminism holds every non-test file under internal/
// to the determinism contract's syntactic half (DESIGN.md §8): a run is
// a pure function of its seed, so simulation code names no wall clock,
// process identity, host parallelism or ambient randomness.
func TestNoAmbientNondeterminism(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err == nil {
			for _, ref := range ambientRefs(fset, f) {
				t.Error(ref)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fenced lists, per package, the names that read the wall clock, the
// process or the host's parallelism. Of math/rand ("*") every name is
// fenced but the constructors and types: draws come from an injected,
// seeded *rand.Rand.
var fenced = map[string]string{"time": " Now Since Until ", "os": " Getpid ", "runtime": " GOMAXPROCS NumCPU ", "math/rand": "*", "math/rand/v2": "*"}

func ambient(path, name string) bool {
	if fenced[path] == "*" {
		return !strings.Contains(" New NewSource NewZipf NewPCG Rand Source Source64 Zipf PCG ", " "+name+" ")
	}
	return strings.Contains(fenced[path], " "+name+" ")
}

// ambientRefs lists f's imports of crypto/rand, its dot imports of
// fenced packages, and every reference, called or not, to an ambient
// name, through whatever name the file imports its package by.
func ambientRefs(fset *token.FileSet, f *ast.File) (refs []string) {
	names := map[string]string{} // local package name → import path
	for _, spec := range f.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		name := filepath.Base(strings.TrimSuffix(path, "/v2"))
		if spec.Name != nil {
			name = spec.Name.Name
		}
		if _, ok := fenced[path]; path == "crypto/rand" || ok && name == "." {
			refs = append(refs, fmt.Sprintf("%s: import %s %q", fset.Position(spec.Pos()), name, path))
		}
		names[name] = path
	}
	ast.Inspect(f, func(n ast.Node) bool {
		// A package name resolves to no object; a local shadowing it does.
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil && ambient(names[id.Name], sel.Sel.Name) {
				refs = append(refs, fmt.Sprintf("%s: %s.%s", fset.Position(sel.Pos()), names[id.Name], sel.Sel.Name))
			}
		}
		return true
	})
	return refs
}

func TestAmbientRefs(t *testing.T) {
	for src, want := range map[string]int{
		`import "time"; var _ = time.Now`:                                       1,
		`import clock "time"; func f() { clock.Since(clock.Time{}) }`:           1,
		`import "time"; func f(time struct{ Now int }) int { return time.Now }`: 0,
		`import "time"; var d time.Duration = time.Second`:                      0,
		`import . "time"; var _ = Now()`:                                        1,
		`import "os"; var _, _ = os.Getpid(), os.Getenv("HOME")`:                1,
		`import "runtime"; var _ = runtime.NumCPU() + runtime.GOMAXPROCS(0)`:    2,
		`import "math/rand"; var r *rand.Rand = rand.New(rand.NewSource(1))`:    0,
		`import "math/rand"; var _ = rand.Intn`:                                 1,
		`import r "math/rand/v2"; var _ = r.N(3)`:                               1,
		`import "math/rand/v2"; var _ = rand.New(rand.NewPCG(1, 2)).IntN(3)`:    0,
		`import _ "crypto/rand"`:                                                1,
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "x.go", "package x; "+src, 0)
		if got := ambientRefs(fset, f); err != nil || len(got) != want {
			t.Errorf("%s: got %q (%v), want %d findings", src, got, err, want)
		}
	}
}
