// Command escapediff enforces the hot path's heap-escape baseline. It
// rebuilds the hot-path packages with -gcflags=-m, keeps the escape
// diagnostics that land inside //geolint:hotpath functions (minus
// //geolint:coldpath-acknowledged sites), and compares them against the
// committed baseline:
//
//	go run ./tools/escapediff            # check: exit 1 on new escapes
//	go run ./tools/escapediff -update    # regenerate the baseline
//
// The build cache replays -m diagnostics on cache hits, so the check is
// cheap when nothing changed. Escape analysis differs across compiler
// releases; when the running toolchain's go version does not match the
// baseline's, the check reports but exits 0 unless -strict is set, so a
// version bump cannot break every branch at once — regenerate with
// -update when upgrading.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"geosel/tools/escapediff/internal/escape"
	"geosel/tools/internal/hotpath"
)

func main() {
	var (
		dir      = flag.String("dir", ".", "repository root to build in")
		baseline = flag.String("baseline", "tools/escapediff/baseline.json", "baseline path, relative to -dir")
		update   = flag.Bool("update", false, "regenerate the baseline instead of checking")
		strict   = flag.Bool("strict", false, "fail on new escapes even when the go version differs from the baseline's")
	)
	flag.Parse()
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		// The enforcement surface: every package under ./internal that
		// annotates a hot function (see DESIGN.md §10).
		var err error
		if pkgs, err = hotpath.Packages(*dir); err != nil {
			fmt.Fprintf(os.Stderr, "escapediff: %v\n", err)
			os.Exit(1)
		}
	}
	if err := run(*dir, *baseline, pkgs, *update, *strict); err != nil {
		fmt.Fprintf(os.Stderr, "escapediff: %v\n", err)
		os.Exit(1)
	}
}

func run(dir, baselinePath string, pkgs []string, update, strict bool) error {
	transcript, err := buildTranscript(dir, pkgs)
	if err != nil {
		return err
	}
	diags, err := escape.ParseTranscript(bytes.NewReader(transcript))
	if err != nil {
		return err
	}
	var dirs []string
	for _, p := range pkgs {
		dirs = append(dirs, filepath.Join(dir, filepath.FromSlash(strings.TrimPrefix(p, "./"))))
	}
	hot, err := hotpath.ScanDir(dirs...)
	if err != nil {
		return err
	}
	// Diagnostics print paths relative to the build dir; the scanner
	// keyed files by joined path. Rebase diagnostics to match.
	for i := range diags {
		diags[i].File = filepath.Join(dir, filepath.FromSlash(diags[i].File))
	}
	cur := escape.Collect(hot, diags)
	// Store repo-relative slash paths so the artifact is portable.
	for i := range cur {
		if rel, err := filepath.Rel(dir, cur[i].File); err == nil {
			cur[i].File = filepath.ToSlash(rel)
		}
	}

	path := filepath.Join(dir, filepath.FromSlash(baselinePath))
	if update {
		b := &escape.Baseline{GoVersion: runtime.Version(), Entries: cur}
		if err := escape.WriteBaseline(path, b); err != nil {
			return err
		}
		fmt.Printf("escapediff: wrote %s (%d hot-path escapes, %s)\n", path, len(cur), b.GoVersion)
		return nil
	}

	base, err := escape.ReadBaseline(path)
	if err != nil {
		return fmt.Errorf("reading baseline (run with -update to create it): %w", err)
	}
	added, removed := escape.Diff(base.Entries, cur)
	for _, e := range added {
		fmt.Printf("NEW escape in hot path: %s %s: %s (x%d)\n", e.File, e.Func, e.Msg, e.Count)
	}
	for _, e := range removed {
		fmt.Printf("escape no longer present (re-run -update to tighten the baseline): %s %s: %s (x%d)\n", e.File, e.Func, e.Msg, e.Count)
	}
	if len(added) == 0 {
		fmt.Printf("escapediff: ok — %d baselined hot-path escapes, none new\n", len(cur))
		return nil
	}
	if base.GoVersion != runtime.Version() && !strict {
		fmt.Printf("escapediff: %d new escape(s), but baseline was built with %s and this is %s; advisory only (use -strict to enforce, -update to re-baseline)\n",
			len(added), base.GoVersion, runtime.Version())
		return nil
	}
	return fmt.Errorf("%d new heap escape(s) in hot-path functions — fix them, annotate the site //geolint:coldpath with justification, or re-baseline with -update after review", len(added))
}

// buildTranscript compiles the packages with escape diagnostics on. The
// compiler prints to stderr; a failed build surfaces its output.
func buildTranscript(dir string, pkgs []string) ([]byte, error) {
	args := append([]string{"build", "-gcflags=-m"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out.String())
	}
	return out.Bytes(), nil
}
