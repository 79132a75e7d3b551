// Package detrand implements the minkowski-vet determinism analyzer:
// in non-test packages under internal/, simulation code must not read
// the wall clock, draw from ambient randomness or consult the ambient
// parallelism. Every Minkowski run is contractually a pure function of
// its Scenario (including Seed) — one time.Now() or package-level rand
// call silently breaks replay, the chaos harness's bit-identical
// re-runs, and every determinism regression test downstream.
//
// The analyzer judges references, not calls: naming one of these
// functions is a finding at that identifier whether it is called or
// taken as a value (passed as an argument, stored in a field or a
// package var), so a sink cannot reach a solve through a function
// value unseen. Flagged:
//
//   - time.Now / time.Since / time.Until (wall-clock reads; simulation
//     time comes from the event engine),
//   - package-level math/rand draws (rand.Intn, rand.Float64, Seed,
//     Shuffle, Perm, …) — RNGs must be injected *rand.Rand seeded
//     from configuration,
//   - runtime.GOMAXPROCS (ambient parallelism: work sharded by it
//     changes with the host, and a mid-run change re-shards it),
//   - rand.NewSource / rand.NewPCG whose seed expression derives from
//     a wall-clock or process-identity call (time.Now().UnixNano(),
//     os.Getpid(), crypto/rand) instead of a config/flag value.
package detrand

import (
	"go/ast"
	"go/types"
	"strings"

	"minkowski/internal/analysis/vet"
)

// Analyzer is the determinism checker.
var Analyzer = &vet.Analyzer{
	Name:          "detrand",
	Doc:           "forbid wall-clock, ambient-rand and GOMAXPROCS references in simulation packages",
	Run:           run,
	PackageFilter: internalOnly,
}

func internalOnly(pkgPath string) bool {
	return strings.Contains(pkgPath, "/internal/") && !strings.Contains(pkgPath, "/internal/analysis")
}

// allowedRandFuncs are the math/rand package-level functions that do
// not draw from the ambient source.
var allowedRandFuncs = map[string]bool{
	"New":     true,
	"NewZipf": true,
	// NewSource is allowed as a constructor but its seed argument is
	// separately checked for wall-clock derivation.
	"NewSource": true,
}

func run(pass *vet.Pass) (any, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if msg := ambientRef(pass, n); msg != "" {
					pass.Reportf(n.Pos(), "%s", msg)
				}
			case *ast.CallExpr:
				fn := calleeFunc(pass, n)
				if fn == nil || fn.Pkg() == nil || !isPackageLevel(fn) {
					return true
				}
				if p := fn.Pkg().Path(); (p == "math/rand" || p == "math/rand/v2") && (fn.Name() == "NewSource" || fn.Name() == "NewPCG") {
					for _, arg := range n.Args {
						if bad := nondeterministicSeed(pass, arg); bad != "" {
							pass.Reportf(n.Pos(), "rand.%s seeded from %s; seeds must derive from a config or flag value", fn.Name(), bad)
						}
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// ambientRef describes the finding for an identifier that refers to a
// package-level wall-clock, ambient-rand or GOMAXPROCS function, or
// returns "" for any other identifier.
func ambientRef(pass *vet.Pass, id *ast.Ident) string {
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || !isPackageLevel(fn) {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
			return "wall-clock read time." + fn.Name() + " breaks run determinism; use the event engine's simulation clock"
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			return "package-level rand." + fn.Name() + " draws from the ambient source; inject a *rand.Rand seeded from configuration"
		}
	case "runtime":
		if fn.Name() == "GOMAXPROCS" {
			return "runtime.GOMAXPROCS reads the ambient parallelism; derive worker counts from configuration, not the host"
		}
	}
	return ""
}

// calleeFunc resolves a call's callee to a *types.Func, or nil for
// indirect calls and conversions.
func calleeFunc(pass *vet.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = pass.TypesInfo.Uses[fun.Sel]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func isPackageLevel(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// nondeterministicSeed scans a seed expression for calls that tie the
// seed to the environment rather than configuration; it returns a
// human-readable description of the first offender.
func nondeterministicSeed(pass *vet.Pass, expr ast.Expr) string {
	bad := ""
	ast.Inspect(expr, func(n ast.Node) bool {
		if bad != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			bad = "the wall clock (time." + fn.Name() + ")"
		case "os":
			if fn.Name() == "Getpid" || fn.Name() == "Getppid" {
				bad = "the process id (os." + fn.Name() + ")"
			}
		case "crypto/rand":
			bad = "crypto/rand"
		}
		return true
	})
	return bad
}
