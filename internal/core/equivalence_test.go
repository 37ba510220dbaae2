package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"geosel/internal/engine"
	"geosel/internal/geodata"
	"geosel/internal/sim"
)

// matrixMetrics are the built-in metrics, each paired with the
// dimension label used in failure messages.
func matrixMetrics(t *testing.T) map[string]sim.Metric {
	t.Helper()
	hybridGauss := sim.Hybrid{Alpha: 0.4, Text: sim.Cosine{}, Spatial: sim.GaussianProximity{Sigma: 0.2}}
	return map[string]sim.Metric{
		"euclid":       sim.EuclideanProximity{MaxDist: 0.3},
		"gauss":        sim.GaussianProximity{Sigma: 0.2},
		"cosine":       sim.Cosine{},
		"hybrid":       hybridMetric(t),
		"hybrid-gauss": hybridGauss,
	}
}

// metricOracle recomputes the evaluator's passes the slow way: one
// m.Sim interface call per pair, with the chunk-partial order spelled
// out term by term. It shares nothing with the evaluator but the
// neighbor index.
type metricOracle struct {
	objs []geodata.Object
	m    sim.Metric
	sum  bool
	nbr  *neighborIndex
}

// visit calls f for every object a pass over c touches, in index order.
func (o *metricOracle) visit(c int, f func(i int, v float64)) {
	if o.nbr != nil {
		if row, ok := o.nbr.row(c); ok {
			for _, i := range row {
				f(int(i), o.m.Sim(&o.objs[i], &o.objs[c]))
			}
			return
		}
	}
	for i := range o.objs {
		f(i, o.m.Sim(&o.objs[i], &o.objs[c]))
	}
}

func (o *metricOracle) absorb(best []float64, sel int) {
	o.visit(sel, func(i int, v float64) {
		if o.sum {
			best[i] += v
		} else if v > best[i] {
			best[i] = v
		}
	})
}

func (o *metricOracle) marginal(best []float64, c int) float64 {
	var gain, part float64
	chunk := 0
	o.visit(c, func(i int, v float64) {
		if nc := i / evalChunk; nc != chunk {
			gain += part
			part = 0
			chunk = nc
		}
		if o.sum {
			part += o.objs[i].Weight * v
		} else if v > best[i] {
			part += o.objs[i].Weight * (v - best[i])
		}
	})
	return gain + part
}

// TestEvaluatorMatchesMetric checks the core bitwise contract at the
// evaluator level: for every built-in metric and a custom one (the
// generic sim.Rows kind), filling a row and reducing it produces
// exactly the floats of per-pair m.Sim calls — marginal gains and
// absorb states, dense and pruned.
func TestEvaluatorMatchesMetric(t *testing.T) {
	objs := testObjects(700, 31) // above serialCutoff so pruning engages
	ids := make([]int, len(objs))
	for i := range ids {
		ids[i] = i
	}
	metrics := matrixMetrics(t)
	metrics["custom"] = sim.Func(sim.EuclideanProximity{MaxDist: 0.3}.Sim)
	// Narrow enough that its eps radius beats the too-dense cutoff.
	metrics["gauss-narrow"] = sim.GaussianProximity{Sigma: 0.05}
	for name, m := range metrics {
		for _, agg := range []Agg{AggMax, AggSum} {
			for _, eps := range []float64{0, 1e-3} {
				e := newEvaluator(nil, objs, m, agg, nil)
				e.enablePruning(m, eps, ids)
				if wantPruned := name == "euclid" || name == "gauss-narrow" && eps > 0; (e.nbr != nil) != wantPruned {
					t.Fatalf("%s eps=%v: pruned = %v, want %v", name, eps, e.nbr != nil, wantPruned)
				}
				oracle := &metricOracle{objs: objs, m: m, sum: e.sumAgg(), nbr: e.nbr}
				got := make([]float64, len(objs))
				want := make([]float64, len(objs))
				rng := rand.New(rand.NewSource(5))
				for round := 0; round < 4; round++ {
					sel := rng.Intn(len(objs))
					e.absorb(got, sel)
					oracle.absorb(want, sel)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s agg=%v eps=%v: absorb state[%d] = %v, metric says %v",
								name, agg, eps, i, got[i], want[i])
						}
					}
					for probe := 0; probe < 20; probe++ {
						c := rng.Intn(len(objs))
						g, w := e.marginalBatch(nil, got, []int{c})[0], oracle.marginal(want, c)
						if g != w {
							t.Fatalf("%s agg=%v eps=%v: marginal(%d) = %v, metric says %v", name, agg, eps, c, g, w)
						}
					}
				}
			}
		}
	}
}

// runConfig is one cell of the equivalence matrix.
type runConfig struct {
	par     int
	stripes int
}

// TestSelectionEquivalenceMatrix is the end-to-end determinism proof of
// the engine: across Parallelism × PruneEps × metric × stripe-count
// overrides, every Selector run returns the identical selection,
// bitwise-identical score, and bitwise-identical gain sequence. The
// reference cell is the serial single-stripe run.
func TestSelectionEquivalenceMatrix(t *testing.T) {
	objs := testObjects(650, 77)
	variants := []runConfig{
		{par: 1, stripes: 0},
		{par: 1, stripes: 3},
		{par: 2, stripes: 0},
		{par: 4, stripes: 7},
		{par: 4, stripes: 2},
	}
	for name, m := range matrixMetrics(t) {
		for _, eps := range []float64{0, 1e-3} {
			run := func(rc runConfig) *Result {
				t.Helper()
				sel := &Selector{
					Config: engine.Config{
						K: 9, Theta: 0.05, Metric: m, Parallelism: rc.par, PruneEps: eps,
					},
					Objects:      objs,
					forceStripes: rc.stripes,
				}
				res, err := sel.Run(context.Background())
				if err != nil {
					t.Fatalf("%s eps=%v %+v: %v", name, eps, rc, err)
				}
				return res
			}
			ref := run(runConfig{par: 1, stripes: 1})
			for _, rc := range variants {
				got := run(rc)
				if len(got.Selected) != len(ref.Selected) {
					t.Fatalf("%s eps=%v %+v: %d selected, ref %d", name, eps, rc, len(got.Selected), len(ref.Selected))
				}
				for i := range ref.Selected {
					if got.Selected[i] != ref.Selected[i] {
						t.Fatalf("%s eps=%v %+v: pick %d = %d, ref %d", name, eps, rc, i, got.Selected[i], ref.Selected[i])
					}
				}
				if got.Score != ref.Score {
					t.Fatalf("%s eps=%v %+v: score %v, ref %v (diff %v)",
						name, eps, rc, got.Score, ref.Score, math.Abs(got.Score-ref.Score))
				}
				for i := range ref.Gains {
					if got.Gains[i] != ref.Gains[i] {
						t.Fatalf("%s eps=%v %+v: gain %d = %v, ref %v", name, eps, rc, i, got.Gains[i], ref.Gains[i])
					}
				}
			}
		}
	}
}

// TestSelectionEquivalenceWithBounds repeats the matrix check on the
// prefetched-bounds path (InitialGains + Heapify with Iter -1), where
// the striped heap is seeded with stale upper bounds instead of exact
// gains.
func TestSelectionEquivalenceWithBounds(t *testing.T) {
	objs := testObjects(650, 78)
	m := hybridMetric(t)
	cands := make([]int, len(objs))
	for i := range cands {
		cands[i] = i
	}
	// Valid upper bounds: Σω (every similarity is <= 1).
	var sumW float64
	for i := range objs {
		sumW += objs[i].Weight
	}
	bounds := make([]float64, len(cands))
	for i := range bounds {
		bounds[i] = sumW
	}
	run := func(rc runConfig) *Result {
		t.Helper()
		sel := &Selector{
			Config:       engine.Config{K: 7, Theta: 0.05, Metric: m, Parallelism: rc.par},
			Objects:      objs,
			Candidates:   cands,
			InitialGains: bounds,
			forceStripes: rc.stripes,
		}
		res, err := sel.Run(context.Background())
		if err != nil {
			t.Fatalf("%+v: %v", rc, err)
		}
		return res
	}
	ref := run(runConfig{par: 1, stripes: 1})
	for _, rc := range []runConfig{
		{par: 1, stripes: 0}, {par: 2, stripes: 5}, {par: 4, stripes: 0},
	} {
		got := run(rc)
		if len(got.Selected) != len(ref.Selected) || got.Score != ref.Score {
			t.Fatalf("%+v: selection/score diverged: %v/%v vs %v/%v",
				rc, got.Selected, got.Score, ref.Selected, ref.Score)
		}
		for i := range ref.Selected {
			if got.Selected[i] != ref.Selected[i] {
				t.Fatalf("%+v: pick %d = %d, ref %d", rc, i, got.Selected[i], ref.Selected[i])
			}
		}
	}
}
