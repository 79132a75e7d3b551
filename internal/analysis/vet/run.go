package vet

import "sort"

// Runner applies analyzers to loaded packages with the whole-load call
// graph plumbed through. The driver and the vettest harness both run
// analyzers exclusively through a Runner.
type Runner struct {
	Graph *CallGraph
}

// NewRunner creates a runner over the loaded packages, building the
// call graph once for the whole set.
func NewRunner(pkgs []*Package) *Runner {
	return &Runner{Graph: BuildCallGraph(pkgs)}
}

// Run applies one analyzer to one loaded package and returns its
// diagnostics sorted by position.
func (r *Runner) Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a, Fset: pkg.Fset, Files: pkg.Files,
		Pkg: pkg.Types, TypesInfo: pkg.Info, Graph: r.Graph,
	}
	if _, err := a.Run(pass); err != nil {
		return nil, err
	}
	diags := pass.Diagnostics()
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// RunPackage applies one analyzer to one package with a fresh Runner
// whose call graph covers just that package. Cross-package analyses
// need a shared Runner; this helper serves the single-package cases
// (framework tests, ad-hoc tooling).
func RunPackage(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	return NewRunner([]*Package{pkg}).Run(a, pkg)
}
