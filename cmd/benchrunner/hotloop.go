package main

// The hotloop suite: the greedy steady state measured as a matrix —
// GOMAXPROCS × {dense, pruned} on a spatial metric — plus one row for
// the hybrid text metric, written as BENCH_hotloop.json. Every cell
// runs the identical workload, and the suite fails unless all cells of
// a metric return the bitwise-identical selection: the performance
// matrix doubles as the end-to-end proof that pruning, stripe count and
// parallelism never leak into results.

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"geosel/internal/core"
	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/sim"
)

// hotloopCell is one matrix cell of BENCH_hotloop.json.
type hotloopCell struct {
	// Metric is "euclid" for the main matrix, "hybrid" for the text
	// row.
	Metric string `json:"metric"`
	// GOMAXPROCS is the requested scheduler width of this cell (also
	// the selector's Parallelism); EffectiveProcs is what the runtime
	// granted.
	GOMAXPROCS     int    `json:"gomaxprocs"`
	EffectiveProcs int    `json:"effective_procs"`
	Engine         string `json:"engine"` // "dense" (DisablePrune) or "pruned"
	NsOp           int64  `json:"ns_op"`
	// SpeedupVsSerial is ns_op of the same metric/engine at
	// GOMAXPROCS=1 divided by this cell's ns_op.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// hotloopReport is the BENCH_hotloop.json schema.
type hotloopReport struct {
	Env   benchEnv `json:"env"`
	N     int      `json:"n"`
	Cands int      `json:"candidates"`
	K     int      `json:"k"`
	Theta float64  `json:"theta"`
	Reps  int      `json:"reps"`
	// IdenticalSelection is the cross-cell bitwise equivalence check
	// over every cell of the same metric; the suite errors when false.
	IdenticalSelection bool          `json:"identical_selection"`
	Cells              []hotloopCell `json:"cells"`
	Note               string        `json:"note"`
}

// runHotloopSuite measures the selection hot loop across the matrix and
// writes the report to out.
func runHotloopSuite(out string, seed int64, quick bool) error {
	n, k, reps := 40000, 80, 2
	stride, hybridStride := 10, 40
	procsAxis := []int{1, 4, 8, 16}
	if quick {
		n, k, reps = 8000, 30, 1
		stride, hybridStride = 10, 20
		procsAxis = []int{1, 2}
	}
	theta := 0.003

	col, err := dataset.Generate(dataset.UKSpec(n, seed))
	if err != nil {
		return err
	}
	objs := col.Objects
	cands := make([]int, 0, n/stride)
	for c := 0; c < n; c += stride {
		cands = append(cands, c)
	}
	hybridCands := make([]int, 0, n/hybridStride)
	for c := 0; c < n; c += hybridStride {
		hybridCands = append(hybridCands, c)
	}

	euclid := sim.EuclideanProximity{MaxDist: 0.04}
	hybrid, err := sim.NewHybrid(0.5, math.Sqrt2)
	if err != nil {
		return err
	}

	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)

	run := func(m sim.Metric, cs []int, procs int, disablePrune bool) (*core.Result, int64, error) {
		runtime.GOMAXPROCS(procs)
		best := int64(math.MaxInt64)
		var res *core.Result
		for rep := 0; rep < reps; rep++ {
			s := &core.Selector{
				Config: engine.Config{
					K: k, Theta: theta, Metric: m, Parallelism: procs, DisablePrune: disablePrune,
				},
				Objects: objs, Candidates: cs,
			}
			start := time.Now()
			r, err := s.Run(context.Background())
			if err != nil {
				return nil, 0, err
			}
			if d := time.Since(start).Nanoseconds(); d < best {
				best = d
			}
			res = r
		}
		return res, best, nil
	}

	report := hotloopReport{
		Env: captureEnv(), N: n, Cands: len(cands), K: k, Theta: theta, Reps: reps,
		IdenticalSelection: true,
		Note: fmt.Sprintf("clustered UK-like dataset, seed %d, best of %d; euclid matrix uses a stride-%d candidate set, "+
			"hybrid row stride-%d at GOMAXPROCS=1; "+
			"speedup_vs_serial is bounded by env.num_cpu regardless of gomaxprocs", seed, reps, stride, hybridStride),
	}

	engines := []struct {
		name         string
		disablePrune bool
	}{{"dense", true}, {"pruned", false}}

	// serialNs[engine] anchors speedup_vs_serial.
	serialNs := map[string]int64{}
	var ref *core.Result

	check := func(name string, res *core.Result) error {
		if ref == nil {
			ref = res
			return nil
		}
		if !sameSelection(ref, res) {
			report.IdenticalSelection = false
			return fmt.Errorf("hotloop: cell %s diverged from the reference selection", name)
		}
		return nil
	}

	for _, procs := range procsAxis {
		for _, eng := range engines {
			res, ns, err := run(euclid, cands, procs, eng.disablePrune)
			if err != nil {
				return err
			}
			name := fmt.Sprintf("euclid/p%d/%s", procs, eng.name)
			if err := check(name, res); err != nil {
				return err
			}
			if procs == 1 {
				serialNs[eng.name] = ns
			}
			report.Cells = append(report.Cells, hotloopCell{
				Metric: "euclid", GOMAXPROCS: procs, EffectiveProcs: runtime.GOMAXPROCS(0),
				Engine: eng.name, NsOp: ns, SpeedupVsSerial: float64(serialNs[eng.name]) / float64(ns),
			})
			fmt.Fprintf(os.Stderr, "[%s: %v]\n", name, time.Duration(ns).Round(time.Millisecond))
		}
	}

	// The hybrid row: the packed-CSR cosine rows at GOMAXPROCS=1.
	// Hybrid-with-cosine has no bounded support radius, so it is dense
	// by construction, and its picks differ from the euclid matrix's
	// (different metric), so it is outside the cross-cell check.
	_, ns, err := run(hybrid, hybridCands, 1, true)
	if err != nil {
		return err
	}
	report.Cells = append(report.Cells, hotloopCell{
		Metric: "hybrid", GOMAXPROCS: 1, EffectiveProcs: runtime.GOMAXPROCS(0),
		Engine: "dense", NsOp: ns, SpeedupVsSerial: 1,
	})
	fmt.Fprintf(os.Stderr, "[hybrid/p1/dense: %v]\n", time.Duration(ns).Round(time.Millisecond))

	return writeJSON(out, report)
}
