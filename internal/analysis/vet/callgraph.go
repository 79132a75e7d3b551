package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds a static call graph over a set of loaded packages,
// CHA-style: precise edges for direct calls, class-hierarchy edges
// for interface method calls (every loaded method with a matching
// name and signature), and function-value tracking for the
// worker-pool pattern (a closure passed to a function parameter is
// bound to that parameter, and calls through the parameter resolve to
// the bound closures). It is deliberately an over-approximation —
// reachability analyses built on it (dettaint) may follow edges no
// execution takes — and it under-approximates exactly where any
// AST-level analysis must: reflection, cgo, and bodies outside the
// loaded set (the standard library is edges-in, never edges-through).
// DESIGN.md §8 records both caveats.
//
// Two type-checking "realms" complicate identity: a package's own
// pass sees its sources type-checked from scratch, while every
// importer sees it through compiler export data, so the same function
// is two distinct types.Object values. The graph canonicalizes
// through (package path, object path) strings and compares signatures
// by package-path-qualified type strings, which are identical in both
// realms.

// CallKind distinguishes how an edge's callee is invoked.
type CallKind int

const (
	// KindCall is an ordinary synchronous call.
	KindCall CallKind = iota
	// KindGo is a `go` statement: the callee runs on a new goroutine.
	KindGo
	// KindDefer is a deferred call.
	KindDefer
	// KindBound marks a function value bound to a callee's parameter
	// at this call site (the callee may invoke it zero or more times).
	KindBound
)

// Node is one function in the call graph: a declared function or
// method (Func != nil; Decl/Pkg set when its body is in the loaded
// set), a function literal (Lit != nil), or an external function
// known only through export data (Func != nil, Decl == nil).
type Node struct {
	Func *types.Func   // nil for literals
	Lit  *ast.FuncLit  // nil for declared/external functions
	Decl *ast.FuncDecl // body, when loaded from source
	Pkg  *Package      // package whose sources hold the body (nil for external)
	Out  []Edge
}

// Edge is one call site (or parameter binding) from a node.
type Edge struct {
	Callee *Node
	Pos    token.Pos
	Kind   CallKind
}

// Body returns the node's body block, or nil for external functions.
func (n *Node) Body() *ast.BlockStmt {
	switch {
	case n.Decl != nil:
		return n.Decl.Body
	case n.Lit != nil:
		return n.Lit.Body
	}
	return nil
}

// Name renders the node for diagnostics: "pkg.F", "pkg.(T).M", or
// "function literal".
func (n *Node) Name() string {
	if n.Func == nil {
		return "function literal"
	}
	name := n.Func.Name()
	if sig, ok := n.Func.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = "(" + named.Obj().Name() + ")." + name
		}
	}
	if pkg := n.Func.Pkg(); pkg != nil {
		name = pkg.Name() + "." + name
	}
	return name
}

// CallGraph is the static call graph over one load.
type CallGraph struct {
	nodes []*Node // all nodes with bodies, deterministic order

	funcs     map[*types.Func]*Node
	lits      map[*ast.FuncLit]*Node
	declIndex map[string]*Node // "pkgpath\x00objpath" -> declared node

	paramIdx map[types.Object]paramRef // declared-function parameter -> (node, index)
	goParams map[paramKey]bool         // parameters whose arguments execute on goroutines
	goLits   map[*ast.FuncLit]bool     // literals that execute on goroutines
}

type paramRef struct {
	node *Node
	idx  int
}

type paramKey struct {
	node *Node
	idx  int
}

// ObjectPath encodes a package-level object, or a method of a
// package-level named type, as a string stable across the
// source-check / export-data boundary (a minimal objectpath). It
// returns ok=false for objects that have no such name (locals,
// struct fields, interface methods of unnamed types).
func ObjectPath(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	// Package-level object.
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name(), true
	}
	// Method on a named type (possibly via pointer receiver).
	if fn, ok := obj.(*types.Func); ok {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + fn.Name(), true
			}
		}
	}
	return "", false
}

// FuncNode resolves a *types.Func (from any realm) to its node,
// creating an external node on first sight of an unloaded function.
func (g *CallGraph) FuncNode(fn *types.Func) *Node {
	if n, ok := g.funcs[fn]; ok {
		return n
	}
	if fn.Pkg() != nil {
		if path, ok := ObjectPath(fn); ok {
			if n, ok := g.declIndex[fn.Pkg().Path()+"\x00"+path]; ok {
				g.funcs[fn] = n
				return n
			}
		}
	}
	n := &Node{Func: fn}
	g.funcs[fn] = n
	return n
}

// LitNode returns the node of a function literal in the loaded set.
func (g *CallGraph) LitNode(lit *ast.FuncLit) *Node { return g.lits[lit] }

// Nodes returns every node with a body, in deterministic load order.
func (g *CallGraph) Nodes() []*Node { return g.nodes }

// GoroutineLit reports whether the literal executes on a goroutine:
// it is launched by a `go` statement, or it is passed into a
// parameter whose arguments are (transitively) executed on one.
func (g *CallGraph) GoroutineLit(lit *ast.FuncLit) bool { return g.goLits[lit] }

// GoParam reports whether arguments passed in parameter position idx
// of fn are executed on a goroutine by fn (directly via `go param(…)`,
// inside a goroutine-executed literal, or by forwarding the parameter
// into another goroutine-executing position). This is the
// worker-pool contract: solver.forEach, linkeval's fan-outs, and
// chaos/search's parallel all go-execute their func parameters.
func (g *CallGraph) GoParam(fn *types.Func, idx int) bool {
	n := g.FuncNode(fn)
	return g.goParams[paramKey{n, idx}]
}

// --- Construction ----------------------------------------------------

// rawCall is one call site awaiting resolution.
type rawCall struct {
	from *Node
	call *ast.CallExpr
	kind CallKind
	pkg  *Package
}

// paramCallSite is a call through a declared function's parameter.
type paramCallSite struct {
	owner *Node // function whose parameter is called
	idx   int
	ctx   *Node // node whose body contains the call (owner or a nested literal)
	kind  CallKind
}

// paramPass is a parameter forwarded as an argument to another call.
type paramPass struct {
	owner   *Node // function whose parameter is forwarded
	idx     int   // its index
	destKey paramKey
	ctx     *Node
	kind    CallKind
}

// litBind is a literal (or the node of a named function value) passed
// as an argument in a parameter position.
type litBind struct {
	value   *Node
	destKey paramKey
	ctx     *Node
	kind    CallKind
}

type graphBuilder struct {
	g          *CallGraph
	addrTaken  []*Node          // func values used outside call position
	methods    []*Node          // declared methods, for interface CHA
	sigKeys    map[*Node]string // signature key per node
	paramCalls []paramCallSite
	paramPasss []paramPass
	litBinds   []litBind

	calleeIdents map[*ast.Ident]bool   // idents in callee position
	directLits   map[*ast.FuncLit]bool // literals invoked where they appear
}

// keyOf returns the node's signature key, computing it lazily for
// nodes created outside phase 1 (external functions used as values).
func (b *graphBuilder) keyOf(n *Node) string {
	if k, ok := b.sigKeys[n]; ok {
		return k
	}
	k := ""
	if n.Func != nil {
		if sig, ok := n.Func.Type().(*types.Signature); ok {
			k = sigKey(sig)
		}
	}
	b.sigKeys[n] = k
	return k
}

// BuildCallGraph constructs the static call graph over pkgs.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		funcs:     map[*types.Func]*Node{},
		lits:      map[*ast.FuncLit]*Node{},
		declIndex: map[string]*Node{},
		paramIdx:  map[types.Object]paramRef{},
		goParams:  map[paramKey]bool{},
		goLits:    map[*ast.FuncLit]bool{},
	}
	b := &graphBuilder{
		g:            g,
		sigKeys:      map[*Node]string{},
		calleeIdents: map[*ast.Ident]bool{},
		directLits:   map[*ast.FuncLit]bool{},
	}

	// Phase 0: index which idents/literals appear in callee position,
	// so value uses (address-taken) are distinguishable from calls.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					b.calleeIdents[fun] = true
				case *ast.SelectorExpr:
					b.calleeIdents[fun.Sel] = true
				case *ast.FuncLit:
					b.directLits[fun] = true
				}
				return true
			})
		}
	}

	// Phase 1: nodes for every declared function and literal.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &Node{Func: fn, Decl: fd, Pkg: pkg}
				g.funcs[fn] = n
				g.nodes = append(g.nodes, n)
				if path, ok := ObjectPath(fn); ok {
					g.declIndex[pkg.PkgPath+"\x00"+path] = n
				}
				if sig, ok := fn.Type().(*types.Signature); ok {
					b.sigKeys[n] = sigKey(sig)
					if sig.Recv() != nil {
						b.methods = append(b.methods, n)
					}
					// Index declared parameters for param-call tracking.
					if fd.Type.Params != nil {
						idx := 0
						for _, field := range fd.Type.Params.List {
							for _, name := range field.Names {
								if obj := pkg.Info.Defs[name]; obj != nil {
									g.paramIdx[obj] = paramRef{n, idx}
								}
								idx++
							}
							if len(field.Names) == 0 {
								idx++
							}
						}
					}
				}
				ast.Inspect(fd.Body, func(x ast.Node) bool {
					if lit, ok := x.(*ast.FuncLit); ok {
						ln := &Node{Lit: lit, Pkg: pkg}
						g.lits[lit] = ln
						g.nodes = append(g.nodes, ln)
						if sig, ok := pkg.Info.TypeOf(lit).(*types.Signature); ok {
							b.sigKeys[ln] = sigKey(sig)
						}
					}
					return true
				})
			}
		}
	}

	// Phase 2: collect call sites, address-taken values, and bindings.
	var calls []rawCall
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				calls = b.collect(pkg, fd, g.funcs[fn], calls)
			}
		}
	}

	// Phase 3: resolve each call site into edges.
	for _, rc := range calls {
		b.resolve(rc)
	}

	// Phase 4: goroutine-execution fixpoint over literals and
	// parameter positions.
	b.goFixpoint()

	// Dedup edges per node, preserving first-occurrence order.
	for _, n := range g.nodes {
		seen := map[*Node]map[CallKind]bool{}
		out := n.Out[:0]
		for _, e := range n.Out {
			if seen[e.Callee] == nil {
				seen[e.Callee] = map[CallKind]bool{}
			}
			if seen[e.Callee][e.Kind] {
				continue
			}
			seen[e.Callee][e.Kind] = true
			out = append(out, e)
		}
		n.Out = out
	}
	return g
}

// collect walks one declaration body recording call sites, func
// values used as values, and literal ranges (for context lookup).
func (b *graphBuilder) collect(pkg *Package, fd *ast.FuncDecl, declNode *Node, calls []rawCall) []rawCall {
	// ctxFor finds the innermost node whose body contains pos.
	type litRange struct {
		n        *Node
		from, to token.Pos
	}
	// A literal's context range is its BODY, not the whole FuncLit: a
	// direct invocation `func(){…}()` is a call expression starting at
	// the literal's own position, and that call belongs to the
	// enclosing function, not to the literal it invokes.
	var litRanges []litRange
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok {
			litRanges = append(litRanges, litRange{b.g.lits[lit], lit.Body.Pos(), lit.Body.End()})
		}
		return true
	})
	ctxFor := func(pos token.Pos) *Node {
		best := declNode
		bestFrom := token.NoPos
		for _, lr := range litRanges {
			if lr.from <= pos && pos < lr.to {
				// Ranges nest; the innermost-started match that still
				// covers pos is the innermost literal.
				if best == declNode || lr.from >= bestFrom {
					best, bestFrom = lr.n, lr.from
				}
			}
		}
		return best
	}

	// Track which CallExprs are go/defer payloads so the generic
	// CallExpr case does not double-record them.
	payload := map[*ast.CallExpr]CallKind{}
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			payload[x.Call] = KindGo
		case *ast.DeferStmt:
			payload[x.Call] = KindDefer
		}
		return true
	})

	ast.Inspect(fd.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			kind := KindCall
			if k, ok := payload[x]; ok {
				kind = k
			}
			calls = append(calls, rawCall{from: ctxFor(x.Pos()), call: x, kind: kind, pkg: pkg})
		case *ast.Ident:
			// Func value used outside call position → address-taken.
			if fn, ok := pkg.Info.Uses[x].(*types.Func); ok && !b.calleeIdents[x] {
				b.addrTaken = append(b.addrTaken, b.g.FuncNode(fn))
			}
		case *ast.FuncLit:
			if !b.directLits[x] {
				b.addrTaken = append(b.addrTaken, b.g.lits[x])
			}
		}
		return true
	})
	return calls
}

// resolve turns one raw call site into graph edges.
func (b *graphBuilder) resolve(rc rawCall) {
	g, pkg, call := b.g, rc.pkg, rc.call
	fun := ast.Unparen(call.Fun)
	// Unwrap generic instantiation.
	switch f := fun.(type) {
	case *ast.IndexExpr:
		if t := pkg.Info.TypeOf(f.X); t != nil {
			if _, isSig := t.Underlying().(*types.Signature); isSig {
				fun = ast.Unparen(f.X)
			}
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	// Conversions are not calls.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}

	addEdge := func(callee *Node, kind CallKind) {
		rc.from.Out = append(rc.from.Out, Edge{Callee: callee, Pos: call.Pos(), Kind: kind})
	}

	// Direct call of a literal: (func(){...})().
	if lit, ok := fun.(*ast.FuncLit); ok {
		addEdge(g.lits[lit], rc.kind)
		if rc.kind == KindGo {
			g.goLits[lit] = true
		}
		b.bindArgs(rc, nil)
		return
	}

	var callee types.Object
	isIfaceCall := false
	switch f := fun.(type) {
	case *ast.Ident:
		callee = pkg.Info.Uses[f]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[f]; ok {
			callee = sel.Obj()
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface && sel.Kind() == types.MethodVal {
				isIfaceCall = true
			}
		} else {
			callee = pkg.Info.Uses[f.Sel]
		}
	}

	switch fn := callee.(type) {
	case *types.Builtin:
		return
	case *types.Func:
		if isIfaceCall {
			// CHA: every loaded method with this name and signature.
			key := sigKey(fn.Type().(*types.Signature))
			for _, m := range b.methods {
				if m.Func.Name() == fn.Name() && b.keyOf(m) == key {
					addEdge(m, rc.kind)
				}
			}
			// The interface declaration itself stays an edge target
			// too, so sinks declared in unloaded packages are visible.
			addEdge(g.FuncNode(fn), rc.kind)
			b.bindArgs(rc, nil)
			return
		}
		node := g.FuncNode(fn)
		addEdge(node, rc.kind)
		b.bindArgs(rc, node)
		return
	case *types.Var:
		// Dynamic call through a function value.
		if ref, ok := g.paramIdx[fn]; ok {
			// Call through a declared function's parameter: resolved
			// precisely via the bindings recorded at its call sites.
			b.paramCalls = append(b.paramCalls, paramCallSite{owner: ref.node, idx: ref.idx, ctx: rc.from, kind: rc.kind})
			b.bindArgs(rc, nil)
			return
		}
	}

	// Fallback: signature-CHA over every address-taken function value
	// with an identical (path-qualified) signature.
	if t := pkg.Info.TypeOf(call.Fun); t != nil {
		sig, ok := t.Underlying().(*types.Signature)
		if !ok {
			b.bindArgs(rc, nil)
			return
		}
		key := sigKey(sig)
		for _, v := range b.addrTaken {
			if b.keyOf(v) == key {
				addEdge(v, rc.kind)
				if rc.kind == KindGo && v.Lit != nil {
					g.goLits[v.Lit] = true
				}
			}
		}
	}
	b.bindArgs(rc, nil)
}

// bindArgs records function-valued arguments of a call. When the
// callee is a loaded function, each such argument is bound to the
// receiving parameter (and an edge callee → value records that the
// callee may invoke it). When the callee is unknown or external, the
// conservative edge is caller → value: the value may run within the
// call's dynamic extent (sort.Slice and friends).
func (b *graphBuilder) bindArgs(rc rawCall, callee *Node) {
	g, pkg := b.g, rc.pkg
	for i, arg := range rc.call.Args {
		var val *Node
		var ownerFwd *paramRef
		switch a := ast.Unparen(arg).(type) {
		case *ast.FuncLit:
			val = g.lits[a]
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[a].(*types.Func); ok {
				val = g.FuncNode(fn)
			} else if obj := pkg.Info.Uses[a]; obj != nil {
				if ref, ok := g.paramIdx[obj]; ok {
					if _, isSig := obj.Type().Underlying().(*types.Signature); isSig {
						ownerFwd = &ref
					}
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[a]; ok && sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					val = g.FuncNode(fn) // bound method value
				}
			} else if fn, ok := pkg.Info.Uses[a.Sel].(*types.Func); ok {
				val = g.FuncNode(fn)
			}
		}
		switch {
		case val != nil && callee != nil && callee.Decl != nil:
			callee.Out = append(callee.Out, Edge{Callee: val, Pos: arg.Pos(), Kind: KindBound})
			b.litBinds = append(b.litBinds, litBind{value: val, destKey: paramKey{callee, i}, ctx: rc.from, kind: rc.kind})
		case val != nil:
			// Unknown/external callee: assume it may invoke the value.
			rc.from.Out = append(rc.from.Out, Edge{Callee: val, Pos: arg.Pos(), Kind: KindBound})
			if rc.kind == KindGo && val.Lit != nil {
				g.goLits[val.Lit] = true
			}
		case ownerFwd != nil && callee != nil && callee.Decl != nil:
			b.paramPasss = append(b.paramPasss, paramPass{
				owner: ownerFwd.node, idx: ownerFwd.idx,
				destKey: paramKey{callee, i}, ctx: rc.from, kind: rc.kind,
			})
		}
	}
}

// goFixpoint computes which literals and parameter positions execute
// on goroutines, iterating the propagation rules to a fixed point.
func (b *graphBuilder) goFixpoint() {
	g := b.g
	// effectiveGo: a call occurring in ctx with kind runs on a
	// goroutine if it is a go statement or ctx is itself a
	// goroutine-executed literal.
	effectiveGo := func(ctx *Node, kind CallKind) bool {
		if kind == KindGo {
			return true
		}
		return ctx.Lit != nil && g.goLits[ctx.Lit]
	}
	for changed := true; changed; {
		changed = false
		for _, pc := range b.paramCalls {
			k := paramKey{pc.owner, pc.idx}
			if !g.goParams[k] && effectiveGo(pc.ctx, pc.kind) {
				g.goParams[k] = true
				changed = true
			}
		}
		for _, pp := range b.paramPasss {
			k := paramKey{pp.owner, pp.idx}
			if !g.goParams[k] && (g.goParams[pp.destKey] || effectiveGo(pp.ctx, pp.kind)) {
				g.goParams[k] = true
				changed = true
			}
		}
		for _, lb := range b.litBinds {
			if lb.value.Lit == nil || g.goLits[lb.value.Lit] {
				continue
			}
			if g.goParams[lb.destKey] || effectiveGo(lb.ctx, lb.kind) {
				g.goLits[lb.value.Lit] = true
				changed = true
			}
		}
	}
}

// sigKey renders a signature with package-path qualifiers, identical
// across the source-check and export-data realms.
func sigKey(sig *types.Signature) string {
	noRecv := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return types.TypeString(noRecv, func(p *types.Package) string { return p.Path() })
}
