// Package vet is a self-contained reimplementation of the
// golang.org/x/tools/go/analysis surface this repository needs,
// built only on the standard library so the analyzer suite carries
// no external dependency. It provides:
//
//   - the Analyzer / Pass / Diagnostic vocabulary the minkowski-vet
//     analyzers are written against (API-compatible with x/tools in
//     shape, so swapping the import path back to the upstream
//     framework is mechanical);
//   - a package loader (load.go) that enumerates packages with
//     `go list` and type-checks their sources against compiler export
//     data, giving every pass full types.Info;
//   - Run, which applies one analyzer to one package — every check is
//     judged at the site, one package at a time;
//   - an analysistest-equivalent harness (vettest.go) that runs an
//     analyzer over `testdata/src/<pkg>` trees and checks reported
//     diagnostics against `// want "regexp"` comments.
//
// The `//minkowski:` directive grammar the analyzers honor is
// documented in DESIGN.md §8.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the analyzer's contract, shown by `minkowski-vet -help`.
	Doc string
	// Run executes the check against one package. The first return
	// value is unused; the signature is x/tools' so analyzers port
	// mechanically.
	Run func(*Pass) (any, error)
	// PackageFilter optionally restricts which import paths the
	// driver applies this analyzer to (nil = every package). The test
	// harness ignores it: testdata packages are always analyzed.
	PackageFilter func(pkgPath string) bool
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Run applies one analyzer to one loaded package and returns its
// diagnostics sorted by position. cmd/minkowski-vet and the vettest
// harness both run analyzers through it.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a, Fset: pkg.Fset, Files: pkg.Files,
		Pkg: pkg.Types, TypesInfo: pkg.Info,
	}
	if _, err := a.Run(pass); err != nil {
		return nil, err
	}
	sort.Slice(pass.diags, func(i, j int) bool { return pass.diags[i].Pos < pass.diags[j].Pos })
	return pass.diags, nil
}

// --- Directive comments ---------------------------------------------

// Directive is one `//minkowski:<name> <justification>` comment.
type Directive struct {
	Name          string // e.g. "unordered-ok"
	Justification string // trailing free text (may be empty)
	Line          int
}

// KnownDirectives is the closed set of directive names the suite
// understands. A //minkowski: comment with any other name is a
// finding (DirectivesAnalyzer) — silent typos like
// //minkowski:unorderd-ok must not silently disable a check.
var KnownDirectives = map[string]bool{
	"hotpath":      true,
	"unordered-ok": true,
	"units-ok":     true,
	"floateq-ok":   true,
	"hotpath-ok":   true,
}

// ParseDirective parses the text of one comment (including the
// leading "//") as a //minkowski: directive. It returns ok=false if
// the comment is not a minkowski directive at all, and a non-nil
// error if it is one but is malformed: an empty name, a name with
// characters outside [a-z0-9-], a name not starting with a letter, or
// a name outside KnownDirectives. Malformed directives never panic;
// they surface as diagnostics through DirectivesAnalyzer.
func ParseDirective(comment string) (d Directive, ok bool, err error) {
	text, isDir := strings.CutPrefix(comment, "//minkowski:")
	if !isDir {
		return Directive{}, false, nil
	}
	name, just, _ := strings.Cut(text, " ")
	d = Directive{Name: name, Justification: strings.TrimSpace(just)}
	if name == "" {
		return d, true, fmt.Errorf("//minkowski: directive with empty name")
	}
	if name[0] < 'a' || name[0] > 'z' {
		return d, true, fmt.Errorf("//minkowski:%s: directive name must start with a lowercase letter", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return d, true, fmt.Errorf("//minkowski:%s: invalid character %q in directive name", name, c)
		}
	}
	if !KnownDirectives[name] {
		return d, true, fmt.Errorf("//minkowski:%s: unknown directive (known: hotpath, *-ok suppressions)", name)
	}
	return d, true, nil
}

// fileDirectives extracts every well-formed //minkowski: directive of
// a file, keyed by the line it sits on. Malformed directives are
// skipped here (DirectivesAnalyzer reports them): a suppression that
// does not parse must not suppress.
func fileDirectives(fset *token.FileSet, f *ast.File) map[int][]Directive {
	out := map[int][]Directive{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok, err := ParseDirective(c.Text)
			if !ok || err != nil {
				continue
			}
			d.Line = fset.Position(c.Pos()).Line
			out[d.Line] = append(out[d.Line], d)
		}
	}
	return out
}

// DirectiveAt looks for a `//minkowski:<name>` directive attached to
// the site at pos: on the same line (trailing comment) or on the line
// immediately above it. It returns the directive and whether one was
// found.
func (p *Pass) DirectiveAt(pos token.Pos, name string) (Directive, bool) {
	posn := p.Fset.Position(pos)
	for _, f := range p.Files {
		ff := p.Fset.File(f.Pos())
		if ff == nil || ff.Name() != posn.Filename {
			continue
		}
		dirs := fileDirectives(p.Fset, f)
		for _, line := range []int{posn.Line, posn.Line - 1} {
			for _, d := range dirs[line] {
				if d.Name == name {
					return d, true
				}
			}
		}
	}
	return Directive{}, false
}

// FuncDirective reports whether the function declaration carries the
// directive in its doc comment (the annotation grammar for
// function-scoped contracts like //minkowski:hotpath).
func FuncDirective(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if d, ok, err := ParseDirective(c.Text); ok && err == nil && d.Name == name {
			return true
		}
	}
	return false
}

// DirectivesAnalyzer reports malformed //minkowski: directives: a
// comment that names the suite but fails to parse would otherwise be
// a silent no-op exactly where the author believed a contract was
// annotated or suppressed.
var DirectivesAnalyzer = &Analyzer{
	Name: "directive",
	Doc:  "flag malformed or unknown //minkowski: directives",
	Run: func(pass *Pass) (any, error) {
		for _, f := range pass.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if _, ok, err := ParseDirective(c.Text); ok && err != nil {
						pass.Reportf(c.Pos(), "%v", err)
					}
				}
			}
		}
		return nil, nil
	},
}
