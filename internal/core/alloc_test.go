package core

import (
	"context"
	"testing"

	"geosel/internal/engine"
	"geosel/internal/invariant"
	"geosel/internal/lazyheap"
	"geosel/internal/sim"
)

// steadyState builds a warmed-up lazy greedy run mid-flight: evaluator,
// arena, initialized heap, and `warm` completed lazyStep rounds. It
// mirrors runLazy's prologue so the test can drive individual steps.
func steadyState(t *testing.T, m sim.Metric, n, warm int, theta, pruneEps float64) (*Selector, *evaluator, *runState, *Result) {
	t.Helper()
	objs := testObjects(n, 123)
	s := &Selector{
		Config:  engine.Config{K: n, Theta: theta, Metric: m, Parallelism: 1, PruneEps: pruneEps},
		Objects: objs,
	}
	e := newEvaluator(context.Background(), objs, s.Metric, s.Agg, nil)
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	if !s.DisablePrune {
		e.enablePruning(s.Metric, s.PruneEps, active)
	}
	best := make([]float64, n)
	st, err := s.newRunState(e, best, make([]int, 0, s.K), active)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	gains := e.marginalBatch(nil, best, active)
	heapInit := make([]lazyheap.Tuple, len(active))
	for i, c := range active {
		heapInit[i] = lazyheap.Tuple{ID: c, Gain: gains[i], Iter: 0}
	}
	st.h.Heapify(heapInit, st.runFn)
	res.Gains = make([]float64, 0, s.K)
	for i := 0; i < warm; i++ {
		if done, err := s.lazyStep(e, res, st); err != nil || done {
			t.Fatalf("warmup step %d: done=%v err=%v", i, done, err)
		}
	}
	return s, e, st, res
}

// TestGreedySteadyStateAllocs is the arena-reuse guard: once the run is
// warm, a greedy iteration — pop, batched re-evaluation, absorb,
// conflict removal — performs zero heap allocations, with and without
// the conflict grid, with and without support-radius pruning, and on
// the metric the server runs (Cosine) as well as a spatial one.
func TestGreedySteadyStateAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their diagnostic arguments")
	}
	euclid := sim.EuclideanProximity{MaxDist: 0.3}
	cases := []struct {
		name  string
		m     sim.Metric
		theta float64
		eps   float64
	}{
		{"gridless-dense", euclid, 0, 0},
		{"grid-pruned", euclid, 0.01, 0},
		{"cosine", sim.Cosine{}, 0.01, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, e, st, res := steadyState(t, c.m, 2048, 100, c.theta, c.eps)
			avg := testing.AllocsPerRun(100, func() {
				if done, err := s.lazyStep(e, res, st); err != nil || done {
					t.Fatalf("measured step: done=%v err=%v", done, err)
				}
			})
			if avg != 0 {
				t.Fatalf("steady-state lazyStep allocates %v per iteration, want 0", avg)
			}
		})
	}
}

// TestMarginalBatchReusesDst pins the arena contract of the batched
// marginal evaluation: with a caller-provided buffer it never
// allocates.
func TestMarginalBatchReusesDst(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their diagnostic arguments")
	}
	objs := testObjects(600, 5)
	e := newEvaluator(nil, objs, sim.EuclideanProximity{MaxDist: 0.3}, AggMax, nil)
	best := make([]float64, len(objs))
	cs := []int{3, 77, 201, 550}
	dst := make([]float64, len(cs))
	avg := testing.AllocsPerRun(100, func() {
		dst = e.marginalBatch(dst, best, cs)
	})
	if avg != 0 {
		t.Fatalf("marginalBatch with reused dst allocates %v, want 0", avg)
	}
}
