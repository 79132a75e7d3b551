// Command minkowski-vet is the repository's multichecker: it runs the
// eight custom determinism/unit-safety/concurrency analyzers over the
// tree and exits nonzero on any finding. CI runs it next to go vet:
//
//	go run ./cmd/minkowski-vet ./...
//
// Analyzers (contracts in DESIGN.md §8):
//
//	detrand   — no wall-clock reads or ambient randomness in internal/
//	mapiter   — no order-sensitive effects inside map iteration
//	units     — no arithmetic or call arguments mixing unit suffixes
//	floateq   — no float ==/!= outside annotated memo-key comparisons
//	hotpath   — no allocation-prone constructs in //minkowski:hotpath funcs
//	goexec    — no loop-var capture, unsynchronized captured writes, or
//	            WaitGroup.Add misuse in goroutine-executed closures
//	dettaint  — no wall-clock / unseeded-rand / GOMAXPROCS / map-order
//	            reads reachable from Solve or //minkowski:hotpath
//	            roots (whole-load call graph)
//	directive — no malformed or unknown //minkowski: directives
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
	"os"
	"strings"

	"minkowski/internal/analysis/detrand"
	"minkowski/internal/analysis/dettaint"
	"minkowski/internal/analysis/floateq"
	"minkowski/internal/analysis/goexec"
	"minkowski/internal/analysis/hotpath"
	"minkowski/internal/analysis/mapiter"
	"minkowski/internal/analysis/units"
	"minkowski/internal/analysis/vet"
)

var analyzers = []*vet.Analyzer{
	detrand.Analyzer,
	mapiter.Analyzer,
	units.Analyzer,
	floateq.Analyzer,
	hotpath.Analyzer,
	goexec.Analyzer,
	dettaint.Analyzer,
	vet.DirectivesAnalyzer,
}

// jsonFinding is one row of the -json findings artifact.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
	Position string `json:"position"`
	Message  string `json:"message"`
}

func main() {
	runFlag := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	jsonFlag := flag.String("json", "", "write findings as JSON to this file")
	flag.Parse()

	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%-9s %s\n", a.Name, a.Doc)
		}
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
	loader := vet.NewLoader(wd)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "minkowski-vet:", err)
		os.Exit(2)
	}

	// One runner across the whole load: the call graph spans every
	// package.
	runner := vet.NewRunner(pkgs)

	exit := 0
	findings := []jsonFinding{} // non-nil so the artifact is [] when clean
	for _, pkg := range pkgs {
		// The analyzers need sound type information; a package that
		// does not type-check cannot vet clean.
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "minkowski-vet: %s: %v\n", pkg.PkgPath, terr)
			exit = 1
		}
		for _, a := range selected {
			if a.PackageFilter != nil && !a.PackageFilter(pkg.PkgPath) {
				continue
			}
			diags, err := runner.Run(a, pkg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "minkowski-vet: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				exit = 2
				continue
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				fmt.Printf("%s: [%s] %s\n", pos, a.Name, d.Message)
				findings = append(findings, jsonFinding{
					Analyzer: a.Name, Package: pkg.PkgPath,
					Position: pos.String(), Message: d.Message,
				})
				exit = 1
			}
		}
	}

	if *jsonFlag != "" {
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
