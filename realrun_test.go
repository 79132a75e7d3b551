package minkowski

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRealRunAllowlist keeps the real-run coverage allowlist short and
// current: at most 12 rows, each a package, a function and a reason,
// each naming a function that exists in that package's non-test files.
// scripts/realrun-coverage.sh checks the rows against what the runs
// execute; this test catches a renamed or deleted function without
// running them.
func TestRealRunAllowlist(t *testing.T) {
	const path = "testdata/realrun-allowlist.txt"
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type row struct{ pkg, fn string }
	var rows []row
	seen := map[row]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cols := strings.Split(line, "\t")
		if len(cols) != 3 || strings.TrimSpace(cols[2]) == "" {
			t.Errorf("%s:%d: want package<TAB>function<TAB>reason, got %q", path, n, line)
			continue
		}
		r := row{cols[0], cols[1]}
		if seen[r] {
			t.Errorf("%s:%d: %s %s listed twice", path, n, r.pkg, r.fn)
		}
		seen[r] = true
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) > 12 {
		t.Errorf("%d allowlist rows, want at most 12: delete the code or make a run execute it", len(rows))
	}

	funcs := map[string]map[string]bool{} // package → its functions, "Recv.Method" for methods
	declared := func(pkg string) map[string]bool {
		if fs, ok := funcs[pkg]; ok {
			return fs
		}
		fs := map[string]bool{}
		funcs[pkg] = fs
		dir, ok := strings.CutPrefix(pkg, "minkowski")
		if !ok || (dir != "" && !strings.HasPrefix(dir, "/")) {
			return fs
		}
		files, _ := filepath.Glob(filepath.Join("."+dir, "*.go"))
		fset := token.NewFileSet()
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			af, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range af.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					fs[recvPrefix(fd)+fd.Name.Name] = true
				}
			}
		}
		return fs
	}
	for _, r := range rows {
		if !declared(r.pkg)[r.fn] {
			t.Errorf("allowlisted %s %s does not exist", r.pkg, r.fn)
		}
	}
}

// recvPrefix is "Recv." for a method (pointer or not), "" for a
// function: the naming go tool covdata func uses, less its '*'.
func recvPrefix(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}
