package vet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// TypeErrors collects type-checker complaints. Analysis still
	// runs over partially typed packages, but the driver reports
	// them (a broken build must not vet clean by accident).
	TypeErrors []error
}

// Loader enumerates and type-checks packages of the module rooted at
// Dir. Instead of depending on golang.org/x/tools/go/packages it
// shells out to `go list` — both to enumerate package file sets and
// to obtain compiler export data for imports (`go list -export`
// compiles on demand and serves from the build cache, so loads work
// offline and stay warm).
type Loader struct {
	// Dir is the module root every `go list` runs in.
	Dir string

	fset      *token.FileSet
	exportMu  map[string]string // import path -> export data file
	importer_ types.Importer
}

// NewLoader creates a loader for the module rooted at dir.
func NewLoader(dir string) *Loader {
	l := &Loader{
		Dir:      dir,
		fset:     token.NewFileSet(),
		exportMu: map[string]string{},
	}
	l.importer_ = importer.ForCompiler(l.fset, "gc", l.lookupExport)
	return l
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

func (l *Loader) goList(args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	return out.Bytes(), nil
}

// lookupExport resolves one import path to its compiler export data,
// backing the gc importer. Paths not primed by Load are resolved with
// an individual `go list -export` call (testdata packages importing
// arbitrary stdlib or module packages hit this path).
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	file, ok := l.exportMu[path]
	if !ok {
		out, err := l.goList("list", "-export", "-f", "{{.Export}}", path)
		if err != nil {
			return nil, err
		}
		file = strings.TrimSpace(string(out))
		l.exportMu[path] = file
	}
	if file == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

// primeExports fills the export-data map for the patterns and all
// their dependencies in one `go list` invocation.
func (l *Loader) primeExports(patterns []string) error {
	args := append([]string{"list", "-deps", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, patterns...)
	out, err := l.goList(args...)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(out), "\n") {
		path, file, ok := strings.Cut(line, "\t")
		if ok && path != "" && file != "" {
			l.exportMu[path] = file
		}
	}
	return nil
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
}

// Load enumerates the packages matching patterns (e.g. "./...") and
// returns them parsed and type-checked, in import-path order. Only
// non-test compilation units are loaded: GoFiles, not _test.go files —
// the determinism contracts bind production code, and testdata trees
// are not packages at all.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if err := l.primeExports(patterns); err != nil {
		return nil, err
	}
	args := append([]string{"list", "-json=ImportPath,Dir,Name,GoFiles"}, patterns...)
	out, err := l.goList(args...)
	if err != nil {
		return nil, err
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		listed = append(listed, lp)
	}
	sort.Slice(listed, func(i, j int) bool { return listed[i].ImportPath < listed[j].ImportPath })

	var pkgs []*Package
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := l.check(lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir loads the single package formed by every .go file directly
// under dir, type-checked as import path pkgPath. This is the testdata
// entry point: testdata trees are invisible to go list, but their
// imports (stdlib or module packages) still resolve through export
// data. No build constraints are evaluated; a testdata package is one
// platform-independent file set.
func (l *Loader) LoadDir(pkgPath, dir string) (*Package, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return l.check(pkgPath, dir, files)
}

func (l *Loader) check(pkgPath, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l.importer_,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(pkgPath, l.fset, files, info)
	return &Package{
		PkgPath: pkgPath, Dir: dir, Fset: l.fset, Files: files,
		Types: tpkg, Info: info, TypeErrors: typeErrs,
	}, nil
}
