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
// The `//minkowski:` suppression directives the analyzers honor are
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

// --- Suppression directives ----------------------------------------

// DirectiveAt looks for a `//minkowski:<name> <justification>` comment
// attached to the site at pos: on the same line (trailing comment) or
// on the line immediately above it. The name must match exactly, so a
// misspelt suppression never suppresses: the finding it was meant to
// silence still reports. It returns the trimmed justification and
// whether the directive was found.
func (p *Pass) DirectiveAt(pos token.Pos, name string) (justification string, ok bool) {
	posn := p.Fset.Position(pos)
	for _, f := range p.Files {
		ff := p.Fset.File(f.Pos())
		if ff == nil || ff.Name() != posn.Filename {
			continue
		}
		for _, line := range []int{posn.Line, posn.Line - 1} {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, isDir := strings.CutPrefix(c.Text, "//minkowski:")
					if !isDir || p.Fset.Position(c.Pos()).Line != line {
						continue
					}
					if dname, just, _ := strings.Cut(text, " "); dname == name {
						return strings.TrimSpace(just), true
					}
				}
			}
		}
	}
	return "", false
}
