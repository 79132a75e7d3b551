// Package floateq implements the minkowski-vet float-equality
// analyzer. The incremental Link Evaluator's cache is contractually
// bit-identical to the brute-force reference, and that contract is
// enforced by exact float comparisons in its memo keys (cached
// positions, transmit-power vectors, lead times). Everywhere else,
// `==` on floats is a bug magnet — and conversely, a well-meaning
// "epsilon tolerance" edit to a memo key silently breaks
// bit-identity. This analyzer freezes the boundary:
//
//   - `==` / `!=` where either operand is a float, or a struct/array
//     whose comparison involves float fields, is forbidden;
//   - except when one operand is a compile-time constant — sentinel
//     guards (`if cfg.Penalty == 0 { cfg.Penalty = default }`) test
//     an exact bit pattern that was assigned, not computed, and are
//     deterministic by construction;
//   - except at sites annotated `//minkowski:floateq-ok <why>` inside
//     the allowlisted memo-key packages (internal/linkeval,
//     internal/itu, internal/radio). Outside those packages the annotation has no
//     effect — refactor instead.
package floateq

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"minkowski/internal/analysis/vet"
)

// Analyzer is the float-equality checker.
var Analyzer = &vet.Analyzer{
	Name: "floateq",
	Doc:  "forbid ==/!= on floats outside allowlisted memo-key comparisons",
	Run:  run,
}

// AllowPackages are the import paths whose annotated memo-key
// comparisons are exempt. Tests may append to this list.
var AllowPackages = []string{
	"minkowski/internal/linkeval",
	"minkowski/internal/itu",
	"minkowski/internal/radio",
}

func allowlisted(pkgPath string) bool {
	for _, p := range AllowPackages {
		if pkgPath == p {
			return true
		}
	}
	return false
}

func run(pass *vet.Pass) (any, error) {
	inAllowPkg := pass.Pkg != nil && allowlisted(pass.Pkg.Path())
	for _, file := range pass.Files {
		// Track the enclosing statement of each comparison so a
		// directive above a multi-line condition covers every
		// comparison in it.
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			b, ok := n.(*ast.BinaryExpr)
			if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
				return true
			}
			kind, ok := floatComparison(pass, b)
			if !ok {
				return true
			}
			if d, hasDir := directiveFor(pass, stack, b); hasDir {
				if !inAllowPkg {
					pass.Reportf(b.OpPos, "//minkowski:floateq-ok only applies inside the memo-key packages (%s); refactor this comparison", strings.Join(AllowPackages, ", "))
					return true
				}
				if d.Justification == "" {
					pass.Reportf(b.OpPos, "//minkowski:floateq-ok requires a justification naming the memo-key contract it implements")
				}
				return true
			}
			hint := "use an explicit tolerance policy"
			if inAllowPkg {
				hint = "if this is a memo-key comparison, annotate //minkowski:floateq-ok <contract>; otherwise use an explicit tolerance policy"
			}
			pass.Reportf(b.OpPos, "%s equality %s floats compares bit patterns; %s", kind, b.Op, hint)
			return true
		})
	}
	return nil, nil
}

// directiveFor resolves the floateq-ok directive governing a
// comparison: attached to the comparison's own line (or the line
// above), or to the first line of its innermost enclosing statement —
// so one directive above a multi-line `if` covers every comparison in
// the condition.
func directiveFor(pass *vet.Pass, stack []ast.Node, b *ast.BinaryExpr) (vet.Directive, bool) {
	if d, ok := pass.DirectiveAt(b.Pos(), "floateq-ok"); ok {
		return d, true
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stmt, ok := stack[i].(ast.Stmt); ok {
			return pass.DirectiveAt(stmt.Pos(), "floateq-ok")
		}
	}
	return vet.Directive{}, false
}

// floatComparison reports whether the comparison touches floating
// point: directly, or through a struct/array whose element-wise
// comparison includes float fields. Comparisons against compile-time
// constants are exempt (sentinel guards).
func floatComparison(pass *vet.Pass, b *ast.BinaryExpr) (string, bool) {
	for _, e := range []ast.Expr{b.X, b.Y} {
		if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
			return "", false
		}
	}
	for _, e := range []ast.Expr{b.X, b.Y} {
		t := pass.TypesInfo.TypeOf(e)
		if t == nil {
			continue
		}
		if isFloat(t) {
			return "exact", true
		}
		if containsFloat(t, map[types.Type]bool{}) {
			return "struct", true
		}
	}
	return "", false
}

func isFloat(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// containsFloat reports whether comparing values of type t compares
// float bit patterns: floats reached through struct fields and array
// elements (pointers, maps, and channels compare by identity and do
// not count).
func containsFloat(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsFloat != 0 || u.Info()&types.IsComplex != 0
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsFloat(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsFloat(u.Elem(), seen)
	}
	return false
}
