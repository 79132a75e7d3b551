// Package goexec implements the minkowski-vet goroutine-discipline
// analyzer for fan-out sites. The repo's parallel pipeline (the solver
// worker pool, linkeval's staged fan-out, chaos search) executes
// closures on worker goroutines, where three bug classes recur:
//
//   - loop-variable capture: a goroutine closure reading the loop
//     iteration variable instead of taking it as an argument. Per-
//     iteration loop variables (go ≥ 1.22) make this safe in current
//     builds, but the idiom hides the data dependence and regresses
//     silently under older toolchains or refactors; the suite treats
//     it as a discipline violation;
//   - unsynchronized writes to captured shared state: a goroutine
//     closure storing through a captured variable — or a captured map,
//     which is never safe — without closure-local slot indexing
//     (results[k] = … where k is a closure parameter or local) and
//     without taking a lock;
//   - WaitGroup.Add inside the goroutine: the classic Add-after-go
//     race, where Wait can return before the goroutine has announced
//     itself.
//
// Which closures run on goroutines comes from the call graph's
// goroutine-execution fixpoint (Pass.Graph.GoroutineLit), so closures
// handed to worker-pool helpers — solver.forEach, chaos/search's
// parallel — are checked exactly like `go func(){…}()` literals.
// Deliberate exceptions carry //minkowski:goexec-ok <justification>.
package goexec

import (
	"go/ast"
	"go/token"
	"go/types"

	"minkowski/internal/analysis/vet"
)

// Analyzer is the goroutine-discipline checker.
var Analyzer = &vet.Analyzer{
	Name: "goexec",
	Doc:  "flag loop-variable capture, unsynchronized captured writes, and WaitGroup.Add misuse in goroutine-executed closures",
	Run:  run,
}

func run(pass *vet.Pass) (any, error) {
	if pass.Graph == nil {
		return nil, nil // no call graph: goroutine execution is unknowable
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			loopVars := collectLoopVars(pass, fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok || !pass.Graph.GoroutineLit(lit) {
					return true
				}
				checkGoLit(pass, lit, loopVars)
				return true // nested goroutine literals are checked too
			})
		}
	}
	return nil, nil
}

// collectLoopVars gathers the iteration variables of every for/range
// statement in the function (objects whose per-iteration identity the
// closure-capture check cares about).
func collectLoopVars(pass *vet.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	vars := map[types.Object]bool{}
	def := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.RangeStmt:
			if s.Tok == token.DEFINE {
				if s.Key != nil {
					def(s.Key)
				}
				if s.Value != nil {
					def(s.Value)
				}
			}
		case *ast.ForStmt:
			if init, ok := s.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, lhs := range init.Lhs {
					def(lhs)
				}
			}
		}
		return true
	})
	return vars
}

// checkGoLit applies the three checks to one goroutine-executed
// literal.
func checkGoLit(pass *vet.Pass, lit *ast.FuncLit, loopVars map[types.Object]bool) {
	takesLock := litTakesLock(pass, lit)
	reportedCapture := map[types.Object]bool{}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested literal: its own goroutine check (if any)
		}
		switch n := n.(type) {
		case *ast.Ident:
			// Only loops enclosing the literal count: a loop declared
			// inside the goroutine's own body is private iteration
			// state, not a capture.
			obj := pass.TypesInfo.Uses[n]
			if obj != nil && loopVars[obj] && capturedBy(lit, obj) && !reportedCapture[obj] && !exempt(pass, n.Pos()) {
				reportedCapture[obj] = true
				pass.Reportf(n.Pos(), "goroutine closure captures loop variable %s; pass it as an argument or bind a closure-local copy", n.Name)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(pass, lit, lhs, n.Pos(), takesLock)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, lit, n.X, n.Pos(), takesLock)
		case *ast.CallExpr:
			if isWaitGroupAdd(pass, n) && !exempt(pass, n.Pos()) {
				pass.Reportf(n.Pos(), "WaitGroup.Add inside the goroutine: Wait can return before this runs; call Add before the go statement")
			}
		}
		return true
	})
}

// checkWrite flags a store through captured state from a goroutine
// closure, unless it is slot-indexed (an index local to the closure
// selects a private element) or the closure synchronizes with a lock.
func checkWrite(pass *vet.Pass, lit *ast.FuncLit, lhs ast.Expr, pos token.Pos, takesLock bool) {
	lhs = ast.Unparen(lhs)
	switch x := lhs.(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		obj := pass.TypesInfo.Uses[x]
		if obj == nil || !capturedBy(lit, obj) {
			return // closure-local variable: private state
		}
		if takesLock || exempt(pass, pos) {
			return
		}
		pass.Reportf(pos, "goroutine writes captured variable %s without synchronization; use a per-slot result, a channel, or a lock", x.Name)
	case *ast.IndexExpr:
		base := ast.Unparen(x.X)
		id, ok := base.(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || !capturedBy(lit, obj) {
			return
		}
		bt := pass.TypesInfo.TypeOf(base)
		if bt != nil {
			if _, isMap := bt.Underlying().(*types.Map); isMap {
				if !takesLock && !exempt(pass, pos) {
					pass.Reportf(pos, "goroutine writes captured map %s: concurrent map writes fault at runtime; use a lock or per-goroutine maps", id.Name)
				}
				return
			}
		}
		if indexIsClosureLocal(pass, lit, x.Index) {
			return // slot indexing: each goroutine owns its element
		}
		if takesLock || exempt(pass, pos) {
			return
		}
		pass.Reportf(pos, "goroutine writes %s[…] with an index not local to the closure; slot-index by a closure parameter or local", id.Name)
	}
}

// capturedBy reports whether obj is declared outside the literal (a
// captured local, or package state) rather than a closure parameter or
// closure-local variable.
func capturedBy(lit *ast.FuncLit, obj types.Object) bool {
	if _, isVar := obj.(*types.Var); !isVar {
		return false
	}
	return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
}

// indexIsClosureLocal reports whether the index expression mentions at
// least one variable declared inside the literal — the slot-indexing
// idiom results[k] = … where k is the worker's own parameter.
func indexIsClosureLocal(pass *vet.Pass, lit *ast.FuncLit, index ast.Expr) bool {
	local := false
	ast.Inspect(index, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj, isVar := pass.TypesInfo.Uses[id].(*types.Var); isVar && obj != nil {
				if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
					local = true
				}
			}
		}
		return true
	})
	return local
}

// litTakesLock reports whether the literal acquires any sync lock —
// coarse evidence that its captured-state writes are deliberately
// synchronized (go vet's copylocks and the race detector own
// lock-discipline precision).
func litTakesLock(pass *vet.Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			switch fn.Name() {
			case "Lock", "RLock", "TryLock", "TryRLock":
				found = true
			}
		}
		return true
	})
	return found
}

func isWaitGroupAdd(pass *vet.Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Name() != "Add" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "WaitGroup"
}

func exempt(pass *vet.Pass, pos token.Pos) bool {
	if d, ok := pass.DirectiveAt(pos, "goexec-ok"); ok {
		if d.Justification == "" {
			pass.Reportf(pos, "//minkowski:goexec-ok requires a justification")
		}
		return true
	}
	return false
}

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
