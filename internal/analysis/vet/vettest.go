package vet

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// This file is the analysistest equivalent: run an analyzer over a
// testdata package and diff its diagnostics against `// want`
// comments.
//
// Expectation grammar (a subset of x/tools analysistest):
//
//	code() // want "regexp" "another regexp"
//
// Each double-quoted (Go syntax) or backquoted regexp on a line must
// be matched by exactly one diagnostic reported on that line, and
// every diagnostic must match exactly one expectation.

// TB is the subset of *testing.T the harness needs (keeps this
// package test-framework-free).
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// parseWants extracts expectations from one source file.
func parseWants(filename string) ([]expectation, error) {
	data, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	var exps []expectation
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rest := strings.TrimSpace(m[1])
		for rest != "" {
			var pat string
			switch rest[0] {
			case '"':
				end := -1
				for j := 1; j < len(rest); j++ {
					if rest[j] == '"' && rest[j-1] != '\\' {
						end = j
						break
					}
				}
				if end < 0 {
					return nil, fmt.Errorf("%s:%d: unterminated want pattern", filename, i+1)
				}
				unq, err := strconv.Unquote(rest[:end+1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", filename, i+1, rest[:end+1], err)
				}
				pat, rest = unq, strings.TrimSpace(rest[end+1:])
			case '`':
				end := strings.IndexByte(rest[1:], '`')
				if end < 0 {
					return nil, fmt.Errorf("%s:%d: unterminated want pattern", filename, i+1)
				}
				pat, rest = rest[1:end+1], strings.TrimSpace(rest[end+2:])
			default:
				return nil, fmt.Errorf("%s:%d: malformed want clause at %q", filename, i+1, rest)
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", filename, i+1, pat, err)
			}
			exps = append(exps, expectation{file: filename, line: i + 1, re: re})
		}
	}
	return exps, nil
}

// ModuleRoot walks up from the working directory to the enclosing
// go.mod, so testdata loads resolve module-internal imports no matter
// which package directory `go test` runs in.
func ModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// RunWant loads testdata/src/<pkg> for each named package (relative
// to the current test's directory), applies the analyzer, and checks
// its diagnostics against the `// want` expectations.
//
// All named packages are loaded up front and analyzed in the given
// order through one shared Runner, so the call graph spans the whole
// set. A testdata package may import an earlier one by its bare name
// (dettaint's detchain suite does), so list dependencies before
// dependents.
func RunWant(t TB, a *Analyzer, pkgs ...string) {
	t.Helper()
	root, err := ModuleRoot()
	if err != nil {
		t.Fatalf("vettest: %v", err)
	}
	cwd, _ := os.Getwd()
	loader := NewLoader(root)
	var loaded []*Package
	for _, name := range pkgs {
		dir := filepath.Join(cwd, "testdata", "src", name)
		pkg, err := loader.LoadDir(name, dir)
		if err != nil {
			t.Fatalf("vettest: loading %s: %v", dir, err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("vettest: %s does not type-check: %v", name, terr)
		}
		loaded = append(loaded, pkg)
	}
	runner := NewRunner(loaded)
	for _, pkg := range loaded {
		diags, err := runner.Run(a, pkg)
		if err != nil {
			t.Fatalf("vettest: %s on %s: %v", a.Name, pkg.PkgPath, err)
		}
		var exps []expectation
		for _, f := range pkg.Files {
			fexps, err := parseWants(pkg.Fset.File(f.Pos()).Name())
			if err != nil {
				t.Fatalf("vettest: %v", err)
			}
			exps = append(exps, fexps...)
		}
		checkWants(t, pkg.Fset, diags, exps)
	}
}

func checkWants(t TB, fset *token.FileSet, diags []Diagnostic, exps []expectation) {
	t.Helper()
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		found := false
		for i := range exps {
			e := &exps[i]
			if !e.matched && e.file == posn.Filename && e.line == posn.Line && e.re.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", posn, d.Message)
		}
	}
	for _, e := range exps {
		if !e.matched {
			t.Errorf("%s:%d: no diagnostic matched pattern %q", e.file, e.line, e.re)
		}
	}
}
