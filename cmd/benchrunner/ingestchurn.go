package main

// The ingest-churn suite: how fast the live store (internal/livestore)
// commits mutation epochs, and what concurrent churn costs the
// navigation path. Written as BENCH_ingest.json. Three measurements:
//
//   - ingest throughput (mutations/s) at batch sizes 1, 64 and 1024 —
//     the cost of snapshot publication amortizing over batch size;
//   - incremental epoch commit vs full index rebuild at 1% churn on the
//     100k-object dataset — the acceptance bar for copy-on-write index
//     maintenance is a >= 5x speedup;
//   - p50/p99 navigation latency of a scripted exploration over a
//     static store vs the same store ingesting continuously in the
//     background (epoch pinning means navigations never block on the
//     writer; the residual delta is memory traffic).

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/isos"
	"geosel/internal/livestore"
	"geosel/internal/sim"
)

// ingestBatchRow is one throughput measurement.
type ingestBatchRow struct {
	BatchSize   int     `json:"batch_size"`
	Mutations   int     `json:"mutations"`
	Epochs      uint64  `json:"epochs"`
	TotalNs     int64   `json:"total_ns"`
	MutPerSec   float64 `json:"mutations_per_sec"`
	FinalLive   int     `json:"final_live"`
	FinalSlots  int     `json:"final_slots"`
	DeadSlots   int     `json:"dead_slots"`
	FinalVer    uint64  `json:"final_version"`
	GridEntries int     `json:"grid_entries"`
}

// navLatencyRow is the navigation-latency profile of one serving mode.
type navLatencyRow struct {
	Mode    string `json:"mode"`
	Steps   int    `json:"steps"`
	P50Ns   int64  `json:"p50_ns"`
	P99Ns   int64  `json:"p99_ns"`
	MaxNs   int64  `json:"max_ns"`
	TotalNs int64  `json:"total_ns"`
	// EpochsDuringTrace is how many versions the store advanced while
	// the trace ran (0 for the static mode).
	EpochsDuringTrace uint64 `json:"epochs_during_trace"`
}

// ingestReport is the BENCH_ingest.json schema.
type ingestReport struct {
	Env       benchEnv `json:"env"`
	N         int      `json:"n"`
	TraceLen  int      `json:"trace_len"`
	ChurnFrac string   `json:"churn_mix"`

	Batches []ingestBatchRow `json:"batches"`

	// Incremental index maintenance vs full grid rebuild, both at a
	// 1%-of-N mutation batch: IncrementalCommitNs is the time spent
	// inside the COW grid commit per epoch (Stats.IndexCommitNs delta),
	// FullRebuildNs rebuilds the same snapshot's index from scratch.
	// Speedup = rebuild / commit; the acceptance bar is >= 5. ApplyNs
	// is the whole Apply call for context — it additionally pays text
	// vectorization and slot staging, costs a rebuild-based design
	// would pay identically on ingest.
	OnePctBatch         int     `json:"one_pct_batch"`
	IncrementalCommitNs int64   `json:"incremental_commit_ns"`
	ApplyNs             int64   `json:"apply_ns"`
	FullRebuildNs       int64   `json:"full_rebuild_ns"`
	Speedup             float64 `json:"speedup_vs_rebuild"`

	Nav  []navLatencyRow `json:"nav"`
	Note string          `json:"note"`
}

// navStep is one scripted user action, derived from the current
// viewport at execution time so the trace composes.
type navStep struct {
	op geo.Op
	// scale is applied around the region center for zooms; delta is the
	// pan offset as a fraction of the region width.
	scale float64
	delta geo.Point
}

// churnNavTrace is the scripted exploration used for the latency
// comparison: drill into the dense center, wander, back out, drill
// elsewhere — every operation kind is exercised several times.
var churnNavTrace = []navStep{
	{op: geo.OpZoomIn, scale: 0.6},
	{op: geo.OpPan, delta: geo.Pt(0.25, 0)},
	{op: geo.OpZoomIn, scale: 0.6},
	{op: geo.OpPan, delta: geo.Pt(0, 0.25)},
	{op: geo.OpZoomOut, scale: 1.5},
	{op: geo.OpPan, delta: geo.Pt(-0.25, 0)},
	{op: geo.OpZoomIn, scale: 0.6},
	{op: geo.OpPan, delta: geo.Pt(0, -0.25)},
	{op: geo.OpZoomOut, scale: 1.5},
	{op: geo.OpZoomIn, scale: 0.6},
	{op: geo.OpPan, delta: geo.Pt(0.25, 0.25)},
	{op: geo.OpZoomOut, scale: 1.5},
}

// runIngestSuite measures live-store ingestion and writes the report to
// out. quick shrinks the dataset and trace for CI smoke runs; the
// checked-in BENCH_ingest.json comes from a full run (n = 100000).
func runIngestSuite(out string, seed int64, quick bool) error {
	n, traceLen := 100000, 20000
	if quick {
		n, traceLen = 10000, 2000
	}
	const k = 30
	thetaFrac := 0.003

	col, err := dataset.Generate(dataset.POISpec(n, seed))
	if err != nil {
		return err
	}
	trace, err := dataset.GenerateChurn(col, dataset.ChurnSpec{
		Mutations: traceLen, Seed: seed + 1,
	})
	if err != nil {
		return err
	}
	muts := make([]livestore.Mutation, len(trace))
	for i, tm := range trace {
		muts[i] = tm.Mutation
	}

	report := ingestReport{
		Env: captureEnv(), N: n, TraceLen: traceLen, ChurnFrac: "3:4:3 insert:update:delete",
		Note: "livestore ingest throughput by batch size; incremental COW grid commit vs full rebuild at 1% churn " +
			"(acceptance: speedup >= 5); p50/p99 scripted-navigation latency static vs under continuous ingestion",
	}
	ctx := context.Background()
	cfg := engine.Config{K: k, ThetaFrac: thetaFrac, Metric: sim.Cosine{}}

	// Throughput by batch size.
	for _, batch := range []int{1, 64, 1024} {
		ls, err := livestore.New(col, cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		for lo := 0; lo < len(muts); lo += batch {
			hi := lo + batch
			if hi > len(muts) {
				hi = len(muts)
			}
			if _, _, err := ls.Apply(ctx, muts[lo:hi]); err != nil {
				return err
			}
		}
		total := time.Since(start)
		st := ls.Stats()
		row := ingestBatchRow{
			BatchSize: batch, Mutations: len(muts), Epochs: st.Batches,
			TotalNs:   total.Nanoseconds(),
			MutPerSec: float64(len(muts)) / total.Seconds(),
			FinalLive: st.Live, FinalSlots: st.Slots, DeadSlots: st.DeadSlots,
			FinalVer:    st.Version,
			GridEntries: livestore.RebuildIndex(ls.Current()),
		}
		report.Batches = append(report.Batches, row)
		fmt.Fprintf(os.Stderr, "[batch %4d: %.0f mutations/s over %d epochs]\n", batch, row.MutPerSec, row.Epochs)
	}

	// Incremental commit vs full rebuild at 1% churn. Both sides are
	// measured on the same store states: each round applies one
	// 1%-of-N batch (timing the epoch commit end to end, snapshot
	// publication included) and then rebuilds the new snapshot's index
	// from scratch for comparison.
	onePct := n / 100
	report.OnePctBatch = onePct
	{
		ls, err := livestore.New(col, cfg)
		if err != nil {
			return err
		}
		rounds := 0
		var commitNs, applyNs, rebuildNs int64
		for lo := 0; lo+onePct <= len(muts); lo += onePct {
			before := ls.Stats().IndexCommitNs
			start := time.Now()
			if _, _, err := ls.Apply(ctx, muts[lo:lo+onePct]); err != nil {
				return err
			}
			applyNs += time.Since(start).Nanoseconds()
			commitNs += ls.Stats().IndexCommitNs - before
			start = time.Now()
			livestore.RebuildIndex(ls.Current())
			rebuildNs += time.Since(start).Nanoseconds()
			rounds++
		}
		report.IncrementalCommitNs = commitNs / int64(rounds)
		report.ApplyNs = applyNs / int64(rounds)
		report.FullRebuildNs = rebuildNs / int64(rounds)
		report.Speedup = float64(rebuildNs) / float64(commitNs)
		fmt.Fprintf(os.Stderr, "[1%% churn: index commit %v (apply %v) vs rebuild %v per epoch, speedup %.1fx over %d rounds]\n",
			time.Duration(report.IncrementalCommitNs).Round(time.Microsecond),
			time.Duration(report.ApplyNs).Round(time.Microsecond),
			time.Duration(report.FullRebuildNs).Round(time.Microsecond),
			report.Speedup, rounds)
	}

	// Navigation latency: static store vs live store under continuous
	// background churn.
	runNav := func(src geodata.Source, mode string, stopChurn func() uint64) (navLatencyRow, error) {
		sessCfg := isos.Config{Config: cfg}
		s, err := isos.NewSession(src, sessCfg)
		if err != nil {
			return navLatencyRow{}, err
		}
		defer s.Close()
		if _, err := s.Start(ctx, geo.RectAround(geo.Pt(0.5, 0.5), 0.25)); err != nil {
			return navLatencyRow{}, err
		}
		var lat []int64
		row := navLatencyRow{Mode: mode}
		for pass := 0; pass < 3; pass++ {
			for _, st := range churnNavTrace {
				region := s.Viewport().Region
				start := time.Now()
				var err error
				switch st.op {
				case geo.OpZoomIn:
					_, err = s.ZoomIn(ctx, region.ScaleAroundCenter(st.scale))
				case geo.OpZoomOut:
					_, err = s.ZoomOut(ctx, region.ScaleAroundCenter(st.scale))
				case geo.OpPan:
					d := geo.Pt(st.delta.X*region.Width(), st.delta.Y*region.Height())
					_, err = s.Pan(ctx, d)
				}
				ns := time.Since(start).Nanoseconds()
				if err != nil {
					return navLatencyRow{}, fmt.Errorf("%s %v: %w", mode, st.op, err)
				}
				lat = append(lat, ns)
				row.TotalNs += ns
			}
		}
		if stopChurn != nil {
			row.EpochsDuringTrace = stopChurn()
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		row.Steps = len(lat)
		row.P50Ns = lat[len(lat)/2]
		row.P99Ns = lat[(len(lat)*99)/100]
		row.MaxNs = lat[len(lat)-1]
		return row, nil
	}

	static, err := dataset.GenerateStore(dataset.POISpec(n, seed))
	if err != nil {
		return err
	}
	row, err := runNav(static, "static", nil)
	if err != nil {
		return err
	}
	report.Nav = append(report.Nav, row)

	ls, err := livestore.New(col, cfg)
	if err != nil {
		return err
	}
	churnCtx, cancelChurn := context.WithCancel(ctx)
	churnDone := make(chan uint64, 1)
	go func() {
		// Replay the trace at its recorded rate (ChurnSpec.RatePerSec,
		// carried in the AtMs timestamps), wrapping when it runs out.
		// Pacing matters: an unthrottled writer both distorts the
		// latency comparison (it saturates the cores the navigations
		// run on) and grows the append-only slot array without bound
		// while the trace runs.
		const batch = 256
		epochs := uint64(0)
		base := time.Now()
		var wrapOffset int64
		for lo := 0; ; lo = (lo + batch) % (len(muts) - batch) {
			if lo == 0 && epochs > 0 {
				wrapOffset += trace[len(trace)-1].AtMs
			}
			due := base.Add(time.Duration(wrapOffset+trace[lo+batch-1].AtMs) * time.Millisecond)
			select {
			case <-churnCtx.Done():
			case <-time.After(time.Until(due)):
			}
			if churnCtx.Err() != nil {
				break
			}
			if _, _, err := ls.Apply(churnCtx, muts[lo:lo+batch]); err != nil {
				break
			}
			epochs++
		}
		churnDone <- epochs
	}()
	row, err = runNav(ls, "churn", func() uint64 {
		cancelChurn()
		return <-churnDone
	})
	if err != nil {
		cancelChurn()
		<-churnDone
		return err
	}
	report.Nav = append(report.Nav, row)
	for _, r := range report.Nav {
		fmt.Fprintf(os.Stderr, "[nav %-6s: p50 %v, p99 %v over %d steps, %d epochs during trace]\n", r.Mode,
			time.Duration(r.P50Ns).Round(time.Microsecond),
			time.Duration(r.P99Ns).Round(time.Microsecond), r.Steps, r.EpochsDuringTrace)
	}

	return writeJSON(out, report)
}
