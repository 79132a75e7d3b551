package vet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
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
	memPkgs   map[string]*types.Package
	importer_ types.Importer
}

// NewLoader creates a loader for the module rooted at dir.
func NewLoader(dir string) *Loader {
	l := &Loader{
		Dir:      dir,
		fset:     token.NewFileSet(),
		exportMu: map[string]string{},
		memPkgs:  map[string]*types.Package{},
	}
	l.importer_ = &chainImporter{
		mem:      l.memPkgs,
		fallback: importer.ForCompiler(l.fset, "gc", l.lookupExport),
	}
	return l
}

// chainImporter resolves imports against packages this loader already
// type-checked from source (LoadDir results — testdata trees are
// invisible to `go list`, so a testdata package importing another can
// only resolve in memory), then falls back to compiler export data.
type chainImporter struct {
	mem      map[string]*types.Package
	fallback types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := c.mem[path]; ok {
		return pkg, nil
	}
	return c.fallback.Import(path)
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
// the determinism and hot-path contracts bind production code, and
// testdata trees are not packages at all.
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

// LoadDir loads the single package formed by the .go files directly
// under dir that match the current build configuration (GOOS/GOARCH
// filename suffixes and //go:build constraints are honored, the way
// go list filters GoFiles), type-checked as import path pkgPath. This
// is the testdata entry point: testdata trees are invisible to go
// list, but their imports (stdlib, module packages, or other LoadDir
// results registered with this loader) still resolve through the
// chained importer.
func (l *Loader) LoadDir(pkgPath, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		match, err := fileMatchesBuild(path)
		if err != nil {
			return nil, err
		}
		if match {
			files = append(files, path)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable .go files in %s", dir)
	}
	sort.Strings(files)
	pkg, err := l.check(pkgPath, dir, files)
	if err != nil {
		return nil, err
	}
	// Register for import by later LoadDir calls (testdata packages
	// importing each other, e.g. dettaint's detchain suite).
	l.memPkgs[pkgPath] = pkg.Types
	return pkg, nil
}

// fileMatchesBuild reports whether the file participates in a build
// for the current GOOS/GOARCH: its filename suffix and leading
// //go:build constraint (if any) must both match. Known tags are the
// current GOOS, GOARCH, "gc", and every goN.M up to the toolchain
// version; anything else ("ignore", foreign platforms, custom tags)
// evaluates false, matching `go list` with no -tags flag.
func fileMatchesBuild(path string) (bool, error) {
	name := strings.TrimSuffix(filepath.Base(path), ".go")
	// _GOOS, _GOARCH, and _GOOS_GOARCH suffix rules.
	parts := strings.Split(name, "_")
	if n := len(parts); n >= 2 {
		last := parts[n-1]
		if knownArch[last] {
			if last != runtime.GOARCH {
				return false, nil
			}
			if n >= 3 && knownOS[parts[n-2]] && parts[n-2] != runtime.GOOS {
				return false, nil
			}
		} else if knownOS[last] && last != runtime.GOOS {
			return false, nil
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	// Scan the leading comment block (before the package clause) for
	// a //go:build line.
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "package ") {
			break
		}
		if !constraint.IsGoBuild(trimmed) {
			continue
		}
		expr, err := constraint.Parse(trimmed)
		if err != nil {
			// A malformed constraint excludes the file (go list would
			// refuse to build it); the loader must not panic on it.
			return false, nil
		}
		return expr.Eval(buildTagMatches), nil
	}
	return true, nil
}

func buildTagMatches(tag string) bool {
	if tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" {
		return true
	}
	// go1.N release tags: true for every version up to the toolchain.
	if v, ok := strings.CutPrefix(tag, "go1."); ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			return false
		}
		cur := strings.TrimPrefix(runtime.Version(), "go1.")
		if i := strings.IndexByte(cur, '.'); i >= 0 {
			cur = cur[:i]
		}
		curN, err := strconv.Atoi(cur)
		return err == nil && n <= curN
	}
	return false
}

var knownOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "js": true,
	"linux": true, "netbsd": true, "openbsd": true, "plan9": true,
	"solaris": true, "wasip1": true, "windows": true,
}

var knownArch = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true,
	"loong64": true, "mips": true, "mips64": true, "mips64le": true,
	"mipsle": true, "ppc64": true, "ppc64le": true, "riscv64": true,
	"s390x": true, "wasm": true,
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
