package core

import (
	"context"
	"runtime"
	"testing"

	"geosel/internal/engine"
	"geosel/internal/geodata"
	"geosel/internal/invariant"
	"geosel/internal/sim"
)

// steadyState builds a lazy greedy run mid-flight in a fresh arena —
// evaluator, forced set absorbed, seeded heap (Selector.startLazy), as
// Run does with every other object a candidate and θ = 0 around the
// forced ones — and completes `warm` lazyStep rounds, so a test can
// drive and inspect individual steps.
func steadyState(t testing.TB, ctx context.Context, s *Selector, warm int) (*arena, *Result) {
	t.Helper()
	n := len(s.Objects)
	a := new(arena)
	e := &a.e
	e.reset(ctx, s.Objects, s.Metric)
	forced := make(map[int]bool)
	for _, f := range s.Forced {
		forced[f] = true
	}
	for i := 0; i < n; i++ {
		if !forced[i] {
			a.active = append(a.active, i)
		}
	}
	a.best = make([]float64, n)
	selected := make([]int, 0, s.K)
	for _, f := range s.Forced {
		selected = append(selected, f)
		e.absorb(a.best, f)
	}
	res := &Result{}
	if err := s.startLazy(a, res, selected, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		if err := s.lazyStep(a, res); err != nil {
			t.Fatalf("warmup step %d: %v", i, err)
		}
	}
	return a, res
}

// TestGreedySteadyStateAllocs is the arena-reuse guard: once the run is
// warm, a greedy iteration — pop, re-evaluation, absorb, conflict
// removal — performs zero heap allocations, with and without
// the conflict grid, and on the metric the server runs (Cosine) as well
// as a spatial one.
//
// Every row evaluates through the residual-support lists, whose
// arena grows a block at a time while candidates are still being
// evaluated for the first time. The Cosine row runs a 2000-object
// region of the end-to-end benchmark's fixture and warms up past that
// phase, so its measured steps are walks and picks over an arena that
// holds its blocks: no allocation at all, and no new block. Run to its
// end, the arena must have allocated little more than it recorded.
func TestGreedySteadyStateAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their diagnostic arguments")
	}
	store := fixtureStore(t)
	region, side := benchRegion(t, store, 2000)
	euclid := sim.EuclideanProximity{MaxDist: 0.3}
	cases := []struct {
		name  string
		m     sim.Metric
		objs  []geodata.Object
		theta float64
		warm  int
	}{
		{"gridless-dense", euclid, testObjects(2048, 123), 0, 100},
		{"grid-dense", euclid, testObjects(2048, 123), 0.01, 100},
		{"cosine", sim.Cosine{}, region, 0.003 * side, 2 * len(region)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &Selector{
				Config:  engine.Config{K: len(c.objs), Theta: c.theta, Metric: c.m},
				Objects: c.objs,
			}
			st, res := steadyState(t, context.Background(), s, c.warm)
			blocks := len(st.res.blocks)
			avg := testing.AllocsPerRun(100, func() {
				if err := s.lazyStep(st, res); err != nil {
					t.Fatalf("measured step: %v", err)
				}
			})
			if avg != 0 {
				t.Fatalf("steady-state lazyStep allocates %v per iteration, want 0", avg)
			}
			if c.name != "cosine" {
				return
			}
			if got := listed(&st.res); blocks == 0 || len(st.res.blocks) != blocks || got < len(c.objs)/2 {
				t.Fatalf("arena went from %d to %d blocks over the measured steps with %d of %d candidates listed; want it warm and still",
					blocks, len(st.res.blocks), got, len(c.objs))
			}
			finishRun(t, s, st, res)
			recorded := 0
			for _, b := range st.res.blocks {
				recorded += b.used
			}
			// A full block's unused tail is shorter than the support that
			// did not fit, at most |O|/residualShare of residualBlock
			// pairs; the last block may be nearly empty.
			slack := float64(residualBlock) / float64(residualBlock-len(c.objs)/residualShare)
			if limit := int(slack*float64(recorded)) + residualBlock; st.res.pairs > limit {
				t.Fatalf("arena allocated %d pairs in %d blocks for %d recorded, want at most %d", st.res.pairs, len(st.res.blocks), recorded, limit)
			}
		})
	}
}

// TestSelectRegionReusesArena is the allocation guard at the seam:
// once a pooled arena has served a region, a SelectRegion call
// allocates its Result, Selected and Gains and nothing that grows with
// the region — the same count at 374 and at 1400 objects of the
// fixture, and under 64 KB per call.
func TestSelectRegionReusesArena(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, so the pooled arena reallocates")
	}
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their diagnostic arguments")
	}
	store := fixtureStore(t)
	col := store.Collection()
	cfg := engine.Config{Metric: sim.Cosine{}}
	dst := make([]int, 0, 100)
	// AllocsPerRun pins GOMAXPROCS to 1; pin the warm calls too, so that
	// they put the arena back in the pool slot of the one P the measured
	// calls take it from, not in another P's, out of their reach.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var counts []float64
	for _, target := range []int{374, 1400} {
		pos, side := benchPositions(t, store, target)
		sel := func() {
			res, err := SelectRegion(context.Background(), cfg, col, pos, 100, 0.003*side, nil, nil, nil, dst[:0])
			if err != nil {
				t.Fatal(err)
			}
			dst = res.Positions
		}
		sel() // warm the arena
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		// Every call finds the arena the previous one put back;
		// AllocsPerRun also makes one extra call.
		allocs := testing.AllocsPerRun(runs, sel)
		runtime.ReadMemStats(&after)
		perCall := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
		if perCall >= 64<<10 {
			t.Errorf("%d objects: %.0f bytes per SelectRegion, want under 64 KB", len(pos), perCall)
		}
		counts = append(counts, allocs)
		t.Logf("%d objects: %v allocations, %.0f bytes per call", len(pos), allocs, perCall)
	}
	if counts[0] != counts[1] {
		t.Fatalf("SelectRegion allocates %v times at 374 objects and %v at 1400; want the same count", counts[0], counts[1])
	}
}

// TestMarginalBatchReusesDst pins the arena contract of the bare
// marginal evaluation, which the exact heap initialization runs once
// per candidate: its row buffer lives on the stack, so it never
// allocates.
func TestMarginalBatchReusesDst(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their diagnostic arguments")
	}
	objs := testObjects(600, 5)
	e := newEvaluator(nil, objs, sim.EuclideanProximity{MaxDist: 0.3})
	best := make([]float64, len(objs))
	var sum float64
	avg := testing.AllocsPerRun(100, func() {
		for _, c := range []int{3, 77, 201, 550} {
			sum += e.marginal(best, c)
		}
	})
	if avg != 0 {
		t.Fatalf("marginal allocates %v per four candidates, want 0", avg)
	}
	if sum <= 0 {
		t.Fatal("the measured evaluations gained nothing")
	}
}
