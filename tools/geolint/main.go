// Command geolint is the project's custom static-analysis suite: a
// multichecker over the invariants that the paper's correctness
// arguments — and PR 1's determinism contract — rest on. It runs in two
// modes:
//
//	go run ./tools/geolint ./...        # standalone, loads packages itself
//	go vet -vettool=$(which geolint) ./...  # driven by cmd/go per package
//
// The framework underneath is a dependency-free re-implementation of
// the golang.org/x/tools go/analysis surface (see internal/analysis),
// because this repository builds against the standard library only.
//
// Analyzers:
//
//	floatorder  float accumulation over map iteration order in the
//	            hot-path packages
//	knobplumb   config literals that bypass the embedded engine.Config
//	errlite     silently discarded errors outside tests
//	nopanic     panic in library packages
//	snapfreeze  mutation of snapshot-owned collections or slices
//	            obtained from a geodata.View outside the owning packages
//
// Standalone mode accepts -analyzers=a,b to run a subset; the package
// graph is loaded once and shared across the selected analyzers.
package main

import (
	"fmt"
	"os"
	"strings"

	"geosel/tools/geolint/internal/analysis"
	"geosel/tools/geolint/internal/analyzers/errlite"
	"geosel/tools/geolint/internal/analyzers/floatorder"
	"geosel/tools/geolint/internal/analyzers/knobplumb"
	"geosel/tools/geolint/internal/analyzers/nopanic"
	"geosel/tools/geolint/internal/analyzers/snapfreeze"
)

// All is the geolint analyzer suite.
var All = []*analysis.Analyzer{
	floatorder.Analyzer,
	knobplumb.Analyzer,
	errlite.Analyzer,
	nopanic.Analyzer,
	snapfreeze.Analyzer,
}

func main() {
	args := os.Args[1:]

	// cmd/go probes a vettool with -V=full (version for the build
	// cache) and -flags (supported analyzer flags) before driving it.
	for _, arg := range args {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			analysis.PrintVersion("geolint")
			return
		case arg == "-flags" || arg == "--flags":
			analysis.PrintFlags()
			return
		}
	}
	if len(args) == 1 && analysis.IsVetConfig(args[0]) {
		analysis.RunVetTool(All, args[0])
		return
	}

	suite := All
	var patterns []string
	for _, arg := range args {
		if names, ok := strings.CutPrefix(arg, "-analyzers="); ok {
			var err error
			if suite, err = selectAnalyzers(names); err != nil {
				fmt.Fprintf(os.Stderr, "geolint: %v\n", err)
				os.Exit(1)
			}
			continue
		}
		patterns = append(patterns, arg)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geolint: %v\n", err)
		os.Exit(1)
	}
	diags, err := analysis.Run(suite, pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geolint: %v\n", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Println(relativize(d))
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "geolint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// selectAnalyzers resolves a comma-separated -analyzers list against
// the suite.
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer, len(All))
	for _, a := range All {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-analyzers selected nothing")
	}
	return out, nil
}

// relativize shortens absolute file paths to the working directory for
// readable output.
func relativize(d analysis.Diagnostic) string {
	s := d.String()
	if wd, err := os.Getwd(); err == nil {
		s = strings.ReplaceAll(s, wd+string(os.PathSeparator), "")
	}
	return s
}
