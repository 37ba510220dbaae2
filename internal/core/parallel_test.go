package core

import (
	"context"
	"math"
	"testing"

	"geosel/internal/engine"
	"geosel/internal/geodata"
	"geosel/internal/sim"
)

// assertMatchesReference replays a Result against the textbook
// arithmetic: straight left-to-right sums, metric interface calls, no
// kernels. The engine sums the same terms in the same order into one
// accumulator, so every engine pick must be the straight-sum argmax of
// the surviving candidates (ties broken by smallest id), and the
// reported gains and score must equal the straight-sum values bit for
// bit.
//
// Alongside, the replay runs lazy forward on its own straight-sum heap:
// seeded with each candidate's linear row sum where the metric has one
// (the engine seeds Cosine's heap from its row sums) and with exact
// gains otherwise, refreshing every stale top it pops, and following the
// engine's picks. A round refreshes exactly the stale entries that rank
// above its winner, whatever order it pops them in, so Evals and Rounds
// must match the engine's too.
func assertMatchesReference(t *testing.T, objs []geodata.Object, k int, theta float64, m sim.Metric, res *Result) {
	t.Helper()
	n := len(objs)
	best := make([]float64, n)
	marginal := func(c int) float64 {
		var gain float64
		for i := range objs {
			if v := m.Sim(&objs[i], &objs[c]); v > best[i] {
				gain += objs[i].Weight * (v - best[i])
			}
		}
		return gain
	}
	alive := make([]bool, n)
	nAlive := n
	for i := range alive {
		alive[i] = true
	}

	// The lazy replay's heap: one (gain, iteration) entry per candidate.
	w := make([]float64, n)
	all := make([]int, n)
	for i := range objs {
		w[i], all[i] = objs[i].Weight, i
	}
	linear := sim.NewRows(m, objs).RowSums(make([]float64, n), w, all)
	gain := make([]float64, n)
	iter := make([]int, n)
	evals := 0
	for c := range objs {
		if linear {
			for i := range objs {
				gain[c] += objs[i].Weight * m.Sim(&objs[i], &objs[c])
			}
			iter[c] = -1
		} else {
			gain[c] = marginal(c)
			evals++
		}
	}
	// lazyRound pops and refreshes stale tops until a fresh one surfaces.
	lazyRound := func(round int) {
		for {
			top := -1
			for c := 0; c < n; c++ {
				if alive[c] && (top < 0 || gain[c] > gain[top]) {
					top = c
				}
			}
			if iter[top] == round {
				return
			}
			gain[top], iter[top] = marginal(top), round
			evals++
		}
	}

	if len(res.Selected) > k {
		t.Fatalf("selected %d objects for K = %d", len(res.Selected), k)
	}
	for pi, pick := range res.Selected {
		if !alive[pick] {
			t.Fatalf("pick %d selects removed candidate %d", pi, pick)
		}
		bestC, bestGain := -1, math.Inf(-1)
		for c := 0; c < n; c++ {
			if !alive[c] {
				continue
			}
			if g := marginal(c); g > bestGain {
				bestC, bestGain = c, g
			}
		}
		if bestC != pick {
			t.Fatalf("pick %d chose %d (gain %v) but the reference argmax is %d (gain %v)",
				pi, pick, marginal(pick), bestC, bestGain)
		}
		if math.Float64bits(bestGain) != math.Float64bits(res.Gains[pi]) {
			t.Fatalf("pick %d gain = %v, reference straight-sum gain %v", pi, res.Gains[pi], bestGain)
		}
		lazyRound(pi)
		for i := range objs {
			if v := m.Sim(&objs[i], &objs[pick]); v > best[i] {
				best[i] = v
			}
		}
		for c := 0; c < n; c++ {
			if alive[c] && (c == pick || objs[c].Loc.Dist(objs[pick].Loc) < theta) {
				alive[c] = false
				nAlive--
			}
		}
	}
	if len(res.Selected) < k && nAlive > 0 {
		t.Fatalf("stopped at %d of %d picks with %d candidates still alive", len(res.Selected), k, nAlive)
	}
	if res.Rounds != len(res.Selected) {
		t.Fatalf("%d rounds for %d picks", res.Rounds, len(res.Selected))
	}
	if res.Evals != evals {
		t.Fatalf("%d evals, the straight-sum lazy replay made %d", res.Evals, evals)
	}
	var total float64
	for i := range objs {
		total += objs[i].Weight * best[i]
	}
	score := 0.0
	if n > 0 {
		score = total / float64(n)
	}
	if math.Float64bits(score) != math.Float64bits(res.Score) {
		t.Fatalf("score = %v, reference straight-sum score %v", res.Score, score)
	}
}

// TestParallelDeterminismMatrix is the determinism guarantee of the
// engine: for a grid of seeds × (K, θ, metric) configurations, two runs
// return bitwise-identical Selected, Score, Gains, Evals and Rounds
// (every reduction sums in index order into one accumulator), and the
// selections, gains, score and evaluation counts match the straight-sum
// replay bit for bit.
func TestParallelDeterminismMatrix(t *testing.T) {
	hybrid, err := sim.NewHybrid(0.5, math.Sqrt2)
	if err != nil {
		t.Fatal(err)
	}
	type metricCase struct {
		name string
		m    sim.Metric
		// short rows run on clusteredObjects, where the metric is zero on
		// almost every pair, instead of the uniform instance.
		short bool
	}
	metrics := []metricCase{
		{name: "cosine", m: sim.Cosine{}},
		{name: "euclidean", m: sim.EuclideanProximity{MaxDist: math.Sqrt2}},
		{name: "hybrid", m: hybrid},
		// A custom metric exercises the generic sim.Rows kind.
		{name: "custom", m: sim.Func(func(a, b *geodata.Object) float64 {
			d := a.Loc.Dist(b.Loc)
			return 1 / (1 + 4*d)
		})},
	}
	for name, m := range shortSupportMetrics() {
		metrics = append(metrics, metricCase{name, m, true})
	}
	clustered := clusteredObjects(t, 2048, 900)
	for seed := int64(0); seed < 3; seed++ {
		uniform := testObjects(700, 900+seed)
		for _, mc := range metrics {
			objs := uniform
			if mc.short {
				if seed > 0 {
					continue // one 2048-object instance is enough
				}
				objs = clustered
			}
			for _, k := range []int{6, 25} {
				for _, theta := range []float64{0, 0.04} {
					run := func() *Result {
						return mustRun(t, &Selector{Config: engine.Config{K: k, Theta: theta, Metric: mc.m}, Objects: objs})
					}
					first := run()
					assertIdenticalResults(t, first, run(), mc.name, seed, k, theta)
					// The O(n²·k) reference replay is expensive; one seed
					// and one K per (metric, θ) cell — one θ on the larger
					// short-support instance — keeps the matrix fast while
					// every cell kind is still certified.
					if seed == 0 && k == 6 && !(mc.short && theta == 0) {
						assertMatchesReference(t, objs, k, theta, mc.m, first)
					}
				}
			}
		}
	}
}

func mustRun(t *testing.T, s *Selector) *Result {
	t.Helper()
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertIdenticalResults(t *testing.T, want, got *Result, metric string, seed int64, k int, theta float64) {
	t.Helper()
	if len(want.Selected) != len(got.Selected) {
		t.Fatalf("%s seed=%d k=%d θ=%v: selected %d vs %d objects",
			metric, seed, k, theta, len(want.Selected), len(got.Selected))
	}
	for i := range want.Selected {
		if want.Selected[i] != got.Selected[i] {
			t.Fatalf("%s seed=%d k=%d θ=%v: pick %d differs: %d vs %d",
				metric, seed, k, theta, i, want.Selected[i], got.Selected[i])
		}
	}
	if want.Score != got.Score {
		t.Fatalf("%s seed=%d k=%d θ=%v: score not bitwise equal: %v vs %v",
			metric, seed, k, theta, want.Score, got.Score)
	}
	for i := range want.Gains {
		if want.Gains[i] != got.Gains[i] {
			t.Fatalf("%s seed=%d k=%d θ=%v: gain %d not bitwise equal: %v vs %v",
				metric, seed, k, theta, i, want.Gains[i], got.Gains[i])
		}
	}
}

// TestParallelDeterminismWithBounds covers the lazy re-evaluation
// under prefetched upper bounds: loose bounds force every candidate
// through the stale-refresh path, and the selection must be bitwise
// the one the exact heap initialization makes.
func TestParallelDeterminismWithBounds(t *testing.T) {
	objs := testObjects(600, 77)
	m := hybridMetric(t)
	cands := make([]int, len(objs))
	for i := range cands {
		cands[i] = i
	}
	var wsum float64
	for i := range objs {
		wsum += objs[i].Weight
	}
	bounds := make([]float64, len(cands))
	for i := range bounds {
		bounds[i] = wsum // trivially valid upper bound (Sim <= 1)
	}
	exact := mustRun(t, &Selector{Config: engine.Config{K: 12, Theta: 0.03, Metric: m}, Objects: objs, Candidates: cands})
	bounded := mustRun(t, &Selector{Config: engine.Config{K: 12, Theta: 0.03, Metric: m}, Objects: objs, Candidates: cands, InitialGains: bounds})
	assertIdenticalResults(t, exact, bounded, "bounded", 77, 12, 0.03)
}

// TestSelfSeedingMatchesExactInit pins the contract of the linear row
// sums: Cosine seeds its own heap with upper bounds (sim.Rows.RowSums),
// the same metric behind an opaque sim.Func compiles to the generic
// kind and pays the exact heap initialization, and the two runs agree
// bitwise — picks, gains, score — whatever the shape of the run. The
// eight-word vocabulary makes exact gain ties the common case, so the
// heap's (gain, id) order is what decides most picks.
func TestSelfSeedingMatchesExactInit(t *testing.T) {
	objs := testObjects(700, 41)
	const k, theta = 12, 0.03
	opaque := sim.Func(sim.Cosine{}.Sim)
	// Forced objects must be θ-separated: take two picks of a plain run.
	forced := mustRun(t, &Selector{Config: engine.Config{K: 2, Theta: theta, Metric: opaque}, Objects: objs}).Selected
	var cands []int
	var bounds []float64
	for c := range objs {
		if c%3 == 0 {
			continue
		}
		// A valid bound either side of the run's own row sum: Σω for
		// every other candidate, nearly the exact row sum for the rest.
		var b float64
		for i := range objs {
			if len(cands)%2 == 0 {
				b += objs[i].Weight
			} else {
				b += objs[i].Weight * opaque.Sim(&objs[i], &objs[c])
			}
		}
		cands = append(cands, c)
		bounds = append(bounds, b*(1+1e-12))
	}
	shapes := map[string]Selector{
		"plain":             {},
		"forced+candidates": {Forced: forced, Candidates: cands},
		"forced+bounds":     {Forced: forced, Candidates: cands, InitialGains: bounds},
	}
	for name, shape := range shapes {
		run := func(m sim.Metric) *Result {
			s := shape
			s.Objects = objs
			s.Config = engine.Config{K: k, Theta: theta, Metric: m}
			return mustRun(t, &s)
		}
		want, got := run(opaque), run(sim.Cosine{})
		assertIdenticalResults(t, want, got, name, 41, k, theta)
		if len(got.Gains) != len(want.Gains) {
			t.Fatalf("%s: %d gains vs %d", name, len(got.Gains), len(want.Gains))
		}
		if name == "plain" && got.Evals >= want.Evals {
			t.Errorf("%s: self-seeded run made %d evals, exact init %d", name, got.Evals, want.Evals)
		}
	}
}

// TestParallelNaiveMatchesLazy pins the DisableLazy ablation to the
// lazy path bit for bit on a 600-object instance.
func TestParallelNaiveMatchesLazy(t *testing.T) {
	objs := testObjects(600, 31)
	m := hybridMetric(t)
	lazy := mustRun(t, &Selector{Config: engine.Config{K: 10, Theta: 0.05, Metric: m}, Objects: objs})
	naive := mustRun(t, &Selector{Config: engine.Config{K: 10, Theta: 0.05, Metric: m, DisableLazy: true}, Objects: objs})
	assertIdenticalResults(t, lazy, naive, "naive-vs-lazy", 31, 10, 0.05)
}

// TestSelectorSingleUse enforces the documented contract: a Selector
// runs once; a second Run returns an explicit error instead of silently
// recomputing from stale state.
func TestSelectorSingleUse(t *testing.T) {
	objs := testObjects(50, 1)
	sel := &Selector{Config: engine.Config{K: 3, Theta: 0.05, Metric: sim.Cosine{}}, Objects: objs}
	if _, err := sel.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Run(context.Background()); err == nil {
		t.Fatal("second Run on the same Selector should fail")
	}
	// A failed validation does not consume the Selector: fixing the
	// configuration and re-running is allowed.
	fixable := &Selector{Config: engine.Config{K: 3, Theta: 0.05}, Objects: objs}
	if _, err := fixable.Run(context.Background()); err == nil {
		t.Fatal("nil metric should fail validation")
	}
	fixable.Metric = sim.Cosine{}
	if _, err := fixable.Run(context.Background()); err != nil {
		t.Fatalf("Run after fixing a validation error: %v", err)
	}
}

// TestGreedyThetaZeroGridless covers the θ <= 0 gridless removal path:
// the visibility constraint is vacuous, no conflict grid is built, and
// each pick must leave the candidate pool exactly once (no duplicate
// selections).
func TestGreedyThetaZeroGridless(t *testing.T) {
	objs := testObjects(120, 55)
	sel := &Selector{Config: engine.Config{K: 15, Theta: 0, Metric: sim.Cosine{}}, Objects: objs}
	res, err := sel.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 15 {
		t.Fatalf("selected %d of 15 with vacuous visibility", len(res.Selected))
	}
	seen := make(map[int]bool, len(res.Selected))
	for _, s := range res.Selected {
		if seen[s] {
			t.Fatalf("object %d selected twice", s)
		}
		seen[s] = true
	}
}

// TestScoreRepresentativesParallelPath checks Score and Representatives
// on a 1 200-object instance against their definitions.
func TestScoreRepresentativesParallelPath(t *testing.T) {
	objs := testObjects(1200, 66)
	m := hybridMetric(t)
	sel := make([]int, 20)
	for i := range sel {
		sel[i] = i * 57 % len(objs)
	}
	var want float64
	for i := range objs {
		want += objs[i].Weight * simToSet(objs, i, sel, m)
	}
	want /= float64(len(objs))
	if got := Score(objs, sel, m, AggMax); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Score = %v, definition %v", got, want)
	}
	rep := Representatives(objs, sel, m)
	for i := range objs {
		bestV, bestS := -1.0, -1
		for _, s := range sel {
			if v := m.Sim(&objs[i], &objs[s]); v > bestV {
				bestV, bestS = v, s
			}
		}
		if rep[i] != bestS {
			t.Fatalf("rep[%d] = %d, want %d", i, rep[i], bestS)
		}
	}
}
