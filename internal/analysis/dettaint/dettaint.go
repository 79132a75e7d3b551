// Package dettaint implements the minkowski-vet interprocedural
// determinism-taint analyzer. The repository's contract is that the
// solve pipeline is a pure function of its inputs: the determinism
// regression suite byte-compares journals across runs, and the
// replicated controller replays the same inputs on the standby. That
// contract dies quietly when a function many calls below Solve reads
// ambient state — exactly the shape of the PR 6 regression, where a
// worker-count helper consulted runtime.GOMAXPROCS mid-solve and a
// concurrent GOMAXPROCS change re-sharded a solve in flight.
//
// The analyzer takes the hotpath roots of the package under analysis —
// functions named Solve (or another of RootNames), and functions
// annotated //minkowski:hotpath — and walks the whole-load static call
// graph (Pass.Graph) from them. Any reachable site that
//
//   - reads the wall clock (time.Now / Since / Until),
//   - draws from the unseeded global math/rand source,
//   - reads runtime.GOMAXPROCS, or
//   - ranges over a map with order-sensitive effects (the mapiter
//     judgment, applied transitively),
//
// is reported at the root, with the call chain rendered so the
// finding is actionable without re-deriving the path. A site that is
// deliberately nondeterministic carries a per-site exemption:
//
//	//minkowski:dettaint-ok <why determinism survives this read>
//
// on, or on the line above, the offending call. The justification is
// mandatory — an empty one is itself a finding. Map-range sites
// already justified with //minkowski:unordered-ok are honored.
//
// Soundness caveats (DESIGN.md §8): the CHA graph over-approximates —
// a reported chain may be infeasible — and under-approximates through
// reflection and bodies outside the loaded set, so a sink buried in an
// external dependency is invisible.
package dettaint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"minkowski/internal/analysis/mapiter"
	"minkowski/internal/analysis/vet"
)

// Analyzer is the determinism-taint checker.
var Analyzer = &vet.Analyzer{
	Name: "dettaint",
	Doc:  "flag wall-clock, unseeded-rand, GOMAXPROCS, and map-order reads reachable from Solve///minkowski:hotpath roots",
	Run:  run,
}

// RootNames are the function names treated as determinism roots in
// every package, in addition to //minkowski:hotpath annotations.
// Snapshot/Encode/Dump and the controller's Obs* accessors are the
// observability export surface: obs output must be byte-identical
// across same-seed runs, so anything they reach is held to the same
// no-wall-clock/no-map-order standard as the solver itself.
var RootNames = map[string]bool{
	"Solve": true, "Snapshot": true, "Encode": true, "Dump": true,
	"ObsSnapshot": true, "ObsTrees": true, "ObsFlightDump": true,
}

func run(pass *vet.Pass) (any, error) {
	if pass.Graph == nil {
		return nil, nil // no call graph: reachability is unknowable
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !RootNames[fn.Name.Name] && !vet.FuncDirective(fn, "hotpath") {
				continue
			}
			checkRoot(pass, fn)
		}
	}
	return nil, nil
}

// finding is one nondeterministic site reachable from a root.
type finding struct {
	sinkPos  token.Pos
	sinkDesc string
	chain    []*vet.Node // root ... node containing the sink
}

// checkRoot BFSes the call graph from one root and reports every
// reachable sink at the root declaration.
func checkRoot(pass *vet.Pass, fn *ast.FuncDecl) {
	rootObj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if rootObj == nil {
		return
	}
	root := pass.Graph.FuncNode(rootObj)
	if root.Body() == nil {
		return
	}

	// BFS with parent pointers for chain rendering.
	parent := map[*vet.Node]*vet.Node{}
	visited := map[*vet.Node]bool{root: true}
	queue := []*vet.Node{root}
	var findings []finding
	seenSink := map[token.Pos]bool{}

	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		chain := renderChainNodes(parent, node)

		// Sinks that are calls appear as graph edges into external
		// functions; map-order sinks need a body scan.
		for _, edge := range node.Out {
			if desc := sinkCall(edge.Callee); desc != "" && !seenSink[edge.Pos] {
				seenSink[edge.Pos] = true
				if ex, bad := exemptAt(node, edge.Pos, "dettaint-ok"); ex {
					if bad {
						pass.Reportf(fn.Name.Pos(), "hotpath root %s: //minkowski:dettaint-ok at %s requires a justification",
							fn.Name.Name, position(pass, edge.Pos))
					}
					continue
				}
				findings = append(findings, finding{sinkPos: edge.Pos, sinkDesc: desc, chain: chain})
			}
			if edge.Callee.Body() != nil && !visited[edge.Callee] {
				visited[edge.Callee] = true
				parent[edge.Callee] = node
				queue = append(queue, edge.Callee)
			}
		}
		findings = append(findings, mapOrderSinks(pass, node, chain, seenSink, fn)...)
	}

	for _, f := range findings {
		pass.Reportf(fn.Name.Pos(), "hotpath root %s reaches %s at %s (via %s); hoist it out of the solve path or annotate the site //minkowski:dettaint-ok <why>",
			fn.Name.Name, f.sinkDesc, position(pass, f.sinkPos), renderChain(f.chain))
	}
}

// sinkCall classifies an edge's callee as a nondeterminism source.
func sinkCall(callee *vet.Node) string {
	fn := callee.Func
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	hasRecv := sig != nil && sig.Recv() != nil
	switch fn.Pkg().Path() {
	case "time":
		if !hasRecv {
			switch fn.Name() {
			case "Now", "Since", "Until":
				return "the wall clock (time." + fn.Name() + ")"
			}
		}
	case "math/rand", "math/rand/v2":
		// Package-level draws use the unseeded (or globally-seeded)
		// process source; methods on an explicitly seeded *rand.Rand
		// are the sanctioned idiom and have a receiver.
		if !hasRecv {
			switch fn.Name() {
			case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
				return "" // constructing a seeded source is the fix, not the bug
			}
			return "the unseeded global rand source (rand." + fn.Name() + ")"
		}
	case "runtime":
		if fn.Name() == "GOMAXPROCS" {
			return "runtime.GOMAXPROCS (ambient parallelism; a mid-solve change re-shards work)"
		}
	}
	return ""
}

// mapOrderSinks scans a reached node's body (nested literals excluded:
// they are graph nodes of their own) for map ranges with
// order-sensitive effects.
func mapOrderSinks(pass *vet.Pass, node *vet.Node, chain []*vet.Node, seenSink map[token.Pos]bool, rootFn *ast.FuncDecl) []finding {
	body := node.Body()
	if body == nil || node.Pkg == nil {
		return nil
	}
	// A pass scoped to the package that owns the body, so the mapiter
	// judgment resolves that package's types.
	npass := &vet.Pass{
		Analyzer: pass.Analyzer, Fset: node.Pkg.Fset, Files: node.Pkg.Files,
		Pkg: node.Pkg.Types, TypesInfo: node.Pkg.Info,
	}
	var out []finding
	var ownLit *ast.FuncLit
	if node.Lit != nil {
		ownLit = node.Lit
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != ownLit {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := npass.TypesInfo.TypeOf(rng.X); t == nil {
			return true
		} else if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if seenSink[rng.Pos()] {
			return true
		}
		reasons := mapiter.OrderSensitiveEffects(npass, body, rng)
		if len(reasons) == 0 {
			return true
		}
		seenSink[rng.Pos()] = true
		for _, name := range []string{"dettaint-ok", "unordered-ok"} {
			if ex, bad := exemptAt(node, rng.Pos(), name); ex {
				if bad && name == "dettaint-ok" {
					pass.Reportf(rootFn.Name.Pos(), "hotpath root %s: //minkowski:dettaint-ok at %s requires a justification",
						rootFn.Name.Name, position(pass, rng.Pos()))
				}
				return true
			}
		}
		out = append(out, finding{
			sinkPos:  rng.Pos(),
			sinkDesc: "a map iteration whose body " + strings.Join(reasons, "; "),
			chain:    chain,
		})
		return true
	})
	return out
}

// exemptAt looks for the named directive at pos within the files of
// the package owning node's body. bad reports a present-but-empty
// justification.
func exemptAt(node *vet.Node, pos token.Pos, name string) (exempt, bad bool) {
	if node.Pkg == nil {
		return false, false
	}
	d, ok := vet.DirectiveAt(node.Pkg.Fset, node.Pkg.Files, pos, name)
	if !ok {
		return false, false
	}
	return true, d.Justification == ""
}

// renderChainNodes reconstructs the BFS path root → node.
func renderChainNodes(parent map[*vet.Node]*vet.Node, node *vet.Node) []*vet.Node {
	var rev []*vet.Node
	for n := node; n != nil; n = parent[n] {
		rev = append(rev, n)
	}
	chain := make([]*vet.Node, len(rev))
	for i, n := range rev {
		chain[len(rev)-1-i] = n
	}
	return chain
}

func renderChain(chain []*vet.Node) string {
	parts := make([]string, len(chain))
	for i, n := range chain {
		parts[i] = n.Name()
	}
	return strings.Join(parts, " → ")
}

func position(pass *vet.Pass, pos token.Pos) string {
	p := pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", shortFile(p.Filename), p.Line)
}

func shortFile(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}
