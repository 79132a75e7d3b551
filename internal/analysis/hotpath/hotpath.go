// Package hotpath implements the minkowski-vet hot-path allocation
// analyzer. Functions annotated
//
//	//minkowski:hotpath
//
// in their doc comment (the candidate-graph sweep, memo lookups,
// the Tier-1 route walk) run once per transceiver pair per solve cycle
// or once per hop per command; a single allocation there multiplies
// into garbage-collector pressure that dominates profiles. Inside annotated
// functions the analyzer flags allocation-prone constructs:
//
//   - any fmt call (Sprintf and friends format through reflection
//     and allocate),
//   - append to a fresh, capacity-less slice declared in the same
//     function (var s []T, s := []T{}, s := make([]T, 0)) — grow it
//     with a capacity hint or reuse scratch buffers,
//   - a map built per call (make(map…) or a map literal) — a visited
//     set or memo allocated on every call; scan a small slice, reuse a
//     stamp array, or keep the map on the receiver,
//   - interface boxing of scalar arguments (passing an int/float/bool
//     where a parameter is interface-typed allocates),
//   - closures created inside loops that capture the loop variable
//     (one closure allocation per iteration).
//
// A deliberate exception carries `//minkowski:hotpath-ok <why>` on
// the flagged line.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"minkowski/internal/analysis/vet"
)

// Analyzer is the hot-path allocation checker.
var Analyzer = &vet.Analyzer{
	Name: "hotpath",
	Doc:  "flag allocation-prone constructs in //minkowski:hotpath functions",
	Run:  run,
}

func run(pass *vet.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !vet.FuncDirective(fn, "hotpath") {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil, nil
}

const perCallMapMsg = "hot path builds a map per call; scan a slice, reuse scratch state, or keep the map on the receiver"

func checkFunc(pass *vet.Pass, fn *ast.FuncDecl) {
	fresh := freshSlices(pass, fn)
	report := func(pos token.Pos, format string, args ...any) {
		if d, ok := pass.DirectiveAt(pos, "hotpath-ok"); ok {
			if d.Justification == "" {
				pass.Reportf(pos, "//minkowski:hotpath-ok requires a justification")
			}
			return
		}
		pass.Reportf(pos, format, args...)
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.CompositeLit); ok && isMap(pass.TypesInfo.TypeOf(lit)) {
			report(lit.Pos(), perCallMapMsg)
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltinCall(pass, call, "make") && len(call.Args) > 0 && isMap(pass.TypesInfo.TypeOf(call.Args[0])) {
			report(call.Pos(), perCallMapMsg)
			return true
		}
		if callee := calleeFunc(pass, call); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
			report(call.Pos(), "hot path calls fmt.%s, which formats through reflection and allocates", callee.Name())
			return true
		}
		checkBoxing(pass, call, report)
		if obj := unboundedAppendTarget(pass, call, fresh); obj != nil {
			report(call.Pos(), "hot path appends to %s, a fresh slice with no capacity hint; preallocate or reuse a scratch buffer", obj.Name())
		}
		return true
	})

	checkLoopClosures(pass, fn.Body, nil, report)
}

// freshSlices collects slice variables declared in this function with
// no capacity: `var s []T`, `s := []T{}`, `s := make([]T, 0)`.
func freshSlices(pass *vet.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil && isSlice(obj.Type()) {
						fresh[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) || !capacityless(pass, rhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil && isSlice(obj.Type()) {
						fresh[obj] = true
					}
				}
			}
		}
		return true
	})
	return fresh
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isBuiltinCall(pass *vet.Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// capacityless reports whether an expression builds an empty slice
// with no capacity hint: `[]T{}` or `make([]T, 0)`.
func capacityless(pass *vet.Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return isSlice(pass.TypesInfo.TypeOf(e)) && len(e.Elts) == 0
	case *ast.CallExpr:
		if !isBuiltinCall(pass, e, "make") {
			return false
		}
		if len(e.Args) >= 3 {
			return false // capacity given
		}
		if len(e.Args) == 2 {
			if tv, ok := pass.TypesInfo.Types[e.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
				return true // make([]T, 0)
			}
			return false // sized make
		}
		return false
	}
	return false
}

// unboundedAppendTarget returns the fresh-slice object an append call
// grows, or nil.
func unboundedAppendTarget(pass *vet.Pass, call *ast.CallExpr, fresh map[types.Object]bool) types.Object {
	if !isBuiltinCall(pass, call, "append") {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	target, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[target]
	if obj == nil || !fresh[obj] {
		return nil
	}
	return obj
}

// checkBoxing flags scalar arguments passed into interface-typed
// parameters.
func checkBoxing(pass *vet.Pass, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if ell, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = ell.Elem()
			}
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil {
			continue
		}
		if basic, ok := at.Underlying().(*types.Basic); ok && basic.Info()&(types.IsNumeric|types.IsBoolean) != 0 {
			report(arg.Pos(), "scalar %s is boxed into %s here (allocates); keep hot-path signatures concrete", at.String(), pt.String())
		}
	}
}

// checkLoopClosures walks the body tracking enclosing-loop variables;
// a FuncLit that references one allocates a closure per iteration.
func checkLoopClosures(pass *vet.Pass, n ast.Node, loopVars []types.Object, report func(token.Pos, string, ...any)) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.RangeStmt:
		vars := loopVars
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok && id != nil {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					vars = append(vars, obj)
				}
			}
		}
		checkLoopClosures(pass, n.Body, vars, report)
		return
	case *ast.ForStmt:
		vars := loopVars
		if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
			for _, lhs := range init.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						vars = append(vars, obj)
					}
				}
			}
		}
		checkLoopClosures(pass, n.Body, vars, report)
		return
	case *ast.FuncLit:
		if len(loopVars) > 0 {
			captured := ""
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if captured != "" {
					return false
				}
				if id, ok := m.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil {
						for _, lv := range loopVars {
							if obj == lv {
								captured = obj.Name()
								return false
							}
						}
					}
				}
				return true
			})
			if captured != "" {
				report(n.Pos(), "closure captures loop variable %s: one closure allocation per iteration; hoist it or pass the value explicitly", captured)
			}
		}
		checkLoopClosures(pass, n.Body, loopVars, report)
		return
	}
	// Generic traversal for every other node.
	ast.Inspect(n, func(m ast.Node) bool {
		if m == n {
			return true
		}
		switch m.(type) {
		case *ast.RangeStmt, *ast.ForStmt, *ast.FuncLit:
			checkLoopClosures(pass, m, loopVars, report)
			return false
		}
		return true
	})
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
