package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sim"
	"geosel/internal/textsim"
)

// matrixMetrics are the built-in metrics, each paired with the
// dimension label used in failure messages.
func matrixMetrics(t *testing.T) map[string]sim.Metric {
	t.Helper()
	return map[string]sim.Metric{
		"euclid": sim.EuclideanProximity{MaxDist: 0.3},
		"cosine": sim.Cosine{},
		"hybrid": hybridMetric(t),
	}
}

// metricOracle recomputes the evaluator's passes the slow way: one
// m.Sim interface call per pair, summed straight in index order. It
// shares nothing with the evaluator.
type metricOracle struct {
	objs []geodata.Object
	m    sim.Metric
}

// visit calls f for every object a pass over c touches, in index order.
func (o *metricOracle) visit(c int, f func(i int, v float64)) {
	for i := range o.objs {
		f(i, o.m.Sim(&o.objs[i], &o.objs[c]))
	}
}

func (o *metricOracle) absorb(best []float64, sel int) {
	o.visit(sel, func(i int, v float64) {
		if v > best[i] {
			best[i] = v
		}
	})
}

func (o *metricOracle) marginal(best []float64, c int) float64 {
	var gain float64
	o.visit(c, func(i int, v float64) {
		if v > best[i] {
			gain += o.objs[i].Weight * (v - best[i])
		}
	})
	return gain
}

// twinObjects returns n objects most of which share one of three texts
// whose unit weights, rounded to float32, give two distinct holders a
// dot product above 1: the instances on which a Cosine row's dots need
// the clamp that turns them into m.Sim. It fails t unless they do.
func twinObjects(t testing.TB, n int, seed int64) []geodata.Object {
	t.Helper()
	texts := []map[int]float64{
		{3: 1, 8: 1, 12: 2},
		{3: 1, 8: 1, 12: 3},
		{3: 1, 8: 2, 12: 2},
	}
	for _, tf := range texts {
		if v := textsim.NewVector(tf); !(v.Dot(v) > 1) {
			t.Fatalf("twins of %v have dot product %v, want one above 1", tf, v.Dot(v))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	objs := make([]geodata.Object, n)
	for i := range objs {
		tf := texts[rng.Intn(len(texts))]
		if rng.Intn(4) == 0 {
			tf = map[int]float64{3: 1, 20 + rng.Intn(5): float64(1 + rng.Intn(3))}
		}
		objs[i] = geodata.Object{ID: i, Loc: geo.Pt(rng.Float64(), rng.Float64()), Weight: rng.Float64(), Vec: textsim.NewVector(tf)}
	}
	return objs
}

// TestEvaluatorMatchesMetric checks the core bitwise contract at the
// evaluator level: for every built-in metric and a custom one (the
// generic sim.Rows kind), filling a row and reducing it produces
// exactly the floats of per-pair m.Sim calls — marginal gains and
// absorb states — also where a Cosine row's dots exceed 1.
func TestEvaluatorMatchesMetric(t *testing.T) {
	check := func(name string, objs []geodata.Object, m sim.Metric) {
		t.Helper()
		e := newEvaluator(nil, objs, m)
		oracle := &metricOracle{objs: objs, m: m}
		got := make([]float64, len(objs))
		want := make([]float64, len(objs))
		rng := rand.New(rand.NewSource(5))
		for round := 0; round < 4; round++ {
			sel := rng.Intn(len(objs))
			e.absorb(got, sel)
			oracle.absorb(want, sel)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: absorb state[%d] = %v, metric says %v", name, i, got[i], want[i])
				}
			}
			for probe := 0; probe < 20; probe++ {
				c := rng.Intn(len(objs))
				g, w := e.marginal(got, c), oracle.marginal(want, c)
				if g != w {
					t.Fatalf("%s: marginal(%d) = %v, metric says %v", name, c, g, w)
				}
			}
		}
	}
	objs := testObjects(700, 31)
	metrics := matrixMetrics(t)
	metrics["custom"] = sim.Func(sim.EuclideanProximity{MaxDist: 0.3}.Sim)
	for name, m := range metrics {
		check(name, objs, m)
	}
	twins := twinObjects(t, 700, 32)
	check("cosine-twins", twins, sim.Cosine{})
	check("hybrid-twins", twins, hybridMetric(t))
}

// shortSupportMetrics are zero, or nearly, on almost every pair of
// clusteredObjects: the instances on which a row of similarities is
// mostly zeros and a residual support a handful of neighbours.
func shortSupportMetrics() map[string]sim.Metric {
	euclid := sim.EuclideanProximity{MaxDist: 0.04}
	return map[string]sim.Metric{
		"euclid-short":   euclid,
		"hybrid-spatial": sim.Hybrid{Alpha: 0, Text: sim.Cosine{}, Spatial: euclid},
	}
}

// clusteredObjects returns n objects of the UK-like generator: dense
// urban clusters over a sparse background, in the unit square.
func clusteredObjects(t testing.TB, n int, seed int64) []geodata.Object {
	t.Helper()
	col, err := dataset.Generate(dataset.UKSpec(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return col.Objects
}

// TestSelectionEquivalenceMatrix is the end-to-end equivalence proof
// of the engine: for every metric row, the lazy run, the naive sweep
// and the same metric behind an opaque sim.Func (the generic sim.Rows
// kind, with the exact heap initialization) return the identical
// selection, bitwise-identical score and bitwise-identical gain
// sequence. The short-support rows run a clustered instance on which
// most similarities are zero.
func TestSelectionEquivalenceMatrix(t *testing.T) {
	type row struct {
		m     sim.Metric
		objs  []geodata.Object
		theta float64
		short bool
	}
	rows := make(map[string]row)
	uniform := testObjects(650, 77)
	for name, m := range matrixMetrics(t) {
		rows[name] = row{m: m, objs: uniform, theta: 0.05}
	}
	twins := twinObjects(t, 650, 79)
	rows["cosine-twins"] = row{m: sim.Cosine{}, objs: twins, theta: 0.05}
	rows["hybrid-twins"] = row{m: hybridMetric(t), objs: twins, theta: 0.05}
	clustered := clusteredObjects(t, 2048, 77)
	for name, m := range shortSupportMetrics() {
		rows[name] = row{m: m, objs: clustered, theta: 0.01, short: true}
	}
	for name, r := range rows {
		run := func(m sim.Metric, naive bool) *Result {
			t.Helper()
			sel := &Selector{
				Config:  engine.Config{K: 9, Theta: r.theta, Metric: m, DisableLazy: naive},
				Objects: r.objs,
			}
			res, err := sel.Run(context.Background())
			if err != nil {
				t.Fatalf("%s naive=%v: %v", name, naive, err)
			}
			return res
		}
		ref := run(r.m, false)
		same := func(what string, got *Result) {
			t.Helper()
			if len(got.Selected) != len(ref.Selected) {
				t.Fatalf("%s %s: %d selected, ref %d", name, what, len(got.Selected), len(ref.Selected))
			}
			for i := range ref.Selected {
				if got.Selected[i] != ref.Selected[i] {
					t.Fatalf("%s %s: pick %d = %d, ref %d", name, what, i, got.Selected[i], ref.Selected[i])
				}
			}
			if got.Score != ref.Score {
				t.Fatalf("%s %s: score %v, ref %v (diff %v)",
					name, what, got.Score, ref.Score, math.Abs(got.Score-ref.Score))
			}
			for i := range ref.Gains {
				if got.Gains[i] != ref.Gains[i] {
					t.Fatalf("%s %s: gain %d = %v, ref %v", name, what, i, got.Gains[i], ref.Gains[i])
				}
			}
		}
		if r.short && (len(ref.Selected) != 9 || ref.Gains[8] <= 0) {
			t.Fatalf("%s: reference run picked %d with last gain %v; the instance is degenerate", name, len(ref.Selected), ref.Gains)
		}
		same("naive", run(r.m, true))
		same("func", run(sim.Func(r.m.Sim), false))
	}
}

// TestSelectionEquivalenceWithBounds repeats the matrix check on the
// prefetched-bounds path (InitialGains + Heapify with Iter -1), where
// the heap is seeded with stale upper bounds instead of exact gains:
// the selection must be the plain run's.
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
	run := func(gains []float64) *Result {
		t.Helper()
		res, err := (&Selector{
			Config:       engine.Config{K: 7, Theta: 0.05, Metric: m},
			Objects:      objs,
			Candidates:   cands,
			InitialGains: gains,
		}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref, got := run(nil), run(bounds)
	if len(got.Selected) != len(ref.Selected) || got.Score != ref.Score {
		t.Fatalf("selection/score diverged: %v/%v vs %v/%v", got.Selected, got.Score, ref.Selected, ref.Score)
	}
	for i := range ref.Selected {
		if got.Selected[i] != ref.Selected[i] {
			t.Fatalf("pick %d = %d, ref %d", i, got.Selected[i], ref.Selected[i])
		}
	}
}

// TestRepresentativesMatchMetric holds Representatives to a per-pair
// m.Sim reference, ties to the earliest member of sel included, on twins
// whose Cosine row dots exceed 1: unclamped, a later twin's dot would
// beat an earlier member's exact self-similarity of 1.
func TestRepresentativesMatchMetric(t *testing.T) {
	objs := twinObjects(t, 600, 80)
	var sel []int
	for i := range objs {
		if i%37 == 0 {
			sel = append(sel, i)
		}
	}
	metrics := matrixMetrics(t)
	metrics["custom"] = sim.Func(sim.Cosine{}.Sim)
	for name, m := range metrics {
		got := Representatives(objs, sel, m)
		for i := range objs {
			best, want := -1.0, -1
			for _, s := range sel {
				if v := m.Sim(&objs[i], &objs[s]); v > best {
					best, want = v, s
				}
			}
			if got[i] != want {
				t.Fatalf("%s: object %d represented by %d, metric says %d", name, i, got[i], want)
			}
		}
	}
}
