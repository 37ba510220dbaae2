// Command bench is the repository's end-to-end benchmark: it generates a
// dataset and a request script from a seed, builds and starts the real
// geoselserver on a loopback port, drives it closed-loop over HTTP, and
// reports what a user of the server sees (latency, throughput, server
// CPU, memory, selection quality) plus, with -trace 1, where the time
// goes layer by layer. See README.md in this directory.
//
//	go run ./bench                                  # all four workloads
//	go run ./bench -workload select_cold -seed 7    # one workload
//	go run ./bench -trace 1                         # every metric, end-to-end and per-layer, and the spans
//	go run ./bench -repeat 2 -check                 # do two sets agree within the bounds?
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: select_cold, nav_session, viewport_warm, mixed_live or all")
		seed    = flag.Int64("seed", 1, "seed of the request order, the client that sends each request, the tiles fetched and every write batch")
		seconds = flag.Int("seconds", 20, "how long the five timed passes of one workload measure, in total")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json on top of the end-to-end metrics")
		quick   = flag.Bool("quick", false, "smoke shape: 8000 objects, one short pass, no warm-up")
		repeat  = flag.Int("repeat", 1, "run this many full sets back to back")
		check   = flag.Bool("check", false, "with -repeat: compare the sets metric by metric against the bounds")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *quick, *repeat, *check); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, trace, quick bool, repeat int, check bool) error {
	if seconds < 1 || repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be positive")
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	selected := workloads
	if name != "all" {
		wl, err := workloadByName(name)
		if err != nil {
			return err
		}
		selected = []workload{wl}
	}
	bin, err := buildServer(root, outDir)
	if err != nil {
		return err
	}
	// A signal cancels the context; every server child is stopped by
	// runWorkload's deferred stop on the way out.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	sets := make([][]*runReport, repeat)
	bad := false
	for s := range sets {
		for _, wl := range selected {
			rc := &runConfig{wl: wl, seed: seed, seconds: seconds, quick: quick, trace: trace, root: root, outDir: outDir, serverBin: bin}
			rep, err := runWorkload(ctx, rc)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			sets[s] = append(sets[s], rep)
			printReport(rep, trace)
			if len(rep.Problems) > 0 {
				bad = true
			}
		}
	}
	if check && !checkSets(sets) {
		bad = true
	}
	if bad {
		return fmt.Errorf("the run does not count, see the problems above")
	}
	return nil
}

// resultLine is the one-line machine-readable result a run ends with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric by name and unit, the sample counts
// behind them, and — last — the result line: the end-to-end metrics, or
// the per-layer ones for a traced run, as the driver's contract has it.
func printReport(rep *runReport, trace bool) {
	fmt.Printf("== %s  seed=%d  objects=%d  flags=%v\n", rep.Workload, rep.Env.Seed, rep.Env.Objects, rep.Env.Flags)
	// A struct of strings and ints always marshals.
	env, _ := json.Marshal(rep.Env) //geolint:errok
	fmt.Printf("env %s\n", env)
	notes := make([]string, 0, len(rep.Notes))
	for k := range rep.Notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Printf("  note %-28s %g\n", k, rep.Notes[k])
	}
	for i, pl := range rep.Passes {
		fmt.Printf("  pass %d: visible=%d p50=%.4gms p90=%.4gms rps=%.5g cpu=%.4gms/req wall=%.3gs calib=%.4gms steal=%.4f\n",
			i+1, pl.Visible, pl.P50, pl.P90, pl.RPS, pl.CPUMs, pl.WallS, pl.CalibMs, pl.Steal)
	}
	line := resultLine{
		Correct:   len(rep.Problems) == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]metricValue{},
	}
	// The end-to-end metrics always print; a traced run adds the
	// per-layer ones, and those are what its result line carries.
	for _, d := range endToEnd {
		fmt.Printf("  %-36s %14.6g %s\n", d.name, rep.Metrics[d.name], d.unit)
		if !trace {
			line.Metrics[d.name] = metricValue{Value: rep.Metrics[d.name], Unit: d.unit}
		}
	}
	if trace {
		for _, d := range perLayer {
			fmt.Printf("  %-36s %14.6g %s\n", d.name, rep.Metrics[d.name], d.unit)
			line.Metrics[d.name] = metricValue{Value: rep.Metrics[d.name], Unit: d.unit}
		}
	} else {
		// The counters behind the fail-loud checks, for the reader.
		for _, k := range []string{"tilecache.hit_ratio", "tilecache.fallback_share", "tilecache.invalidations", "tilecache.evictions", "isos.prefetched_share", "host.calib_ms", "host.steal_share"} {
			fmt.Printf("  (%s %g)\n", k, rep.Metrics[k])
		}
	}
	for _, p := range rep.Problems {
		fmt.Printf("  PROBLEM %s\n", p)
	}
	fmt.Printf("  attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
	// Finite floats and strings always marshal.
	buf, _ := json.Marshal(line) //geolint:errok
	fmt.Printf("%s\n", buf)
}
