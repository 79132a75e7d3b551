// Command minkowski-vet is the repository's multichecker: it runs the
// three custom determinism analyzers over the tree and exits nonzero
// on any finding. CI runs it next to go vet, and TestTreeVetsClean
// holds `go test ./...` to the same bar:
//
//	go run ./cmd/minkowski-vet ./...
//
// Analyzers (contracts in DESIGN.md §8), each judged at the site:
//
//	detrand — no wall-clock, ambient-rand or GOMAXPROCS reference in
//	          internal/, called or taken as a value
//	mapiter — no order-sensitive effects inside map iteration
//	floateq — no float ==/!= outside annotated memo-key comparisons
//
// Flags:
//
//	-run a,b    run only the named analyzers
//	-list       print the analyzers and exit
//	-json FILE  also write findings as a JSON artifact (CI uploads it)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"minkowski/internal/analysis/detrand"
	"minkowski/internal/analysis/floateq"
	"minkowski/internal/analysis/mapiter"
	"minkowski/internal/analysis/vet"
)

var analyzers = []*vet.Analyzer{
	detrand.Analyzer,
	mapiter.Analyzer,
	floateq.Analyzer,
}

// finding is one diagnostic, and one row of the -json findings
// artifact.
type finding struct {
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
	Position string `json:"position"`
	Message  string `json:"message"`
}

func (f finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Position, f.Analyzer, f.Message)
}

// list prints one line per analyzer: its name and contract.
func list(w io.Writer) {
	for _, a := range analyzers {
		fmt.Fprintf(w, "%-7s %s\n", a.Name, a.Doc)
	}
}

// vetTree loads the packages matching patterns in the module rooted at
// dir and applies the selected analyzers to each. It returns the
// findings in package then position order and every type error (a
// package that does not type-check cannot vet clean). err is a load or
// analyzer failure.
func vetTree(dir string, patterns []string, selected []*vet.Analyzer) (findings []finding, typeErrs []error, err error) {
	pkgs, err := vet.NewLoader(dir).Load(patterns...)
	if err != nil {
		return nil, nil, err
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			typeErrs = append(typeErrs, fmt.Errorf("%s: %v", pkg.PkgPath, terr))
		}
		for _, a := range selected {
			if a.PackageFilter != nil && !a.PackageFilter(pkg.PkgPath) {
				continue
			}
			diags, err := vet.Run(a, pkg)
			if err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.PkgPath, err)
			}
			for _, d := range diags {
				findings = append(findings, finding{
					Analyzer: a.Name, Package: pkg.PkgPath,
					Position: pkg.Fset.Position(d.Pos).String(), Message: d.Message,
				})
			}
		}
	}
	return findings, typeErrs, nil
}

func main() {
	runFlag := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	jsonFlag := flag.String("json", "", "write findings as JSON to this file")
	flag.Parse()

	if *listFlag {
		list(os.Stdout)
		return
	}

	selected := analyzers
	if *runFlag != "" {
		byName := map[string]*vet.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*runFlag, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "minkowski-vet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "minkowski-vet:", err)
		os.Exit(2)
	}
	findings, typeErrs, err := vetTree(wd, patterns, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "minkowski-vet:", err)
		os.Exit(2)
	}

	exit := 0
	for _, terr := range typeErrs {
		fmt.Fprintln(os.Stderr, "minkowski-vet:", terr)
		exit = 1
	}
	for _, f := range findings {
		fmt.Println(f)
		exit = 1
	}

	if *jsonFlag != "" {
		if findings == nil {
			findings = []finding{} // the artifact is [] when clean
		}
		data, err := json.MarshalIndent(findings, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonFlag, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "minkowski-vet: writing %s: %v\n", *jsonFlag, err)
			if exit == 0 {
				exit = 2
			}
		}
	}
	os.Exit(exit)
}
