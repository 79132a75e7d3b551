package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestConfigFieldsHaveSetters keeps Config to what someone sets: every
// exported field must be assigned (x.Field = …) by some non-test Go
// file of the repository outside this package — a command, an example,
// an experiment, the chaos search or the benchmark harness. A field
// only DefaultConfig ever assigns is a constant with a zero-value
// fallback branch attached; make it one (the list beside leaseTTLS).
func TestConfigFieldsHaveSetters(t *testing.T) {
	unset := map[string]string{
		"Region":     "a deployment setting: where the service region is",
		"ObsEnabled": "TestEndToEndDeterminism toggles it to prove tracing never feeds back",
	}

	fset := token.NewFileSet()
	assigned := map[string]bool{}
	const root = "../.." // the module root, from internal/core
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Build output (.bench_build), analyzer fixtures, and this
			// package, whose own wiring assigns same-named fields of
			// other configs (wcfg.Seed, fmsCfg.FleetSize).
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || path == filepath.Join(root, "internal", "core")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						assigned[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := parser.ParseFile(fset, "config.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	fields := 0
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Config" {
			return true
		}
		for _, field := range ts.Type.(*ast.StructType).Fields.List {
			for _, name := range field.Names {
				fields++
				_, excused := unset[name.Name]
				switch {
				case !name.IsExported():
				case excused && assigned[name.Name]:
					t.Errorf("Config.%s is now set outside the package; drop its exception", name.Name)
				case !excused && !assigned[name.Name]:
					t.Errorf("no non-test file outside internal/core sets Config.%s: make it a constant, or name who needs it", name.Name)
				}
				delete(unset, name.Name)
			}
		}
		return false
	})
	if fields == 0 {
		t.Fatal("type Config not found in config.go")
	}
	for name := range unset {
		t.Errorf("exception %q names no Config field", name)
	}
}
