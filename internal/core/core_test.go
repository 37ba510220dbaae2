package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sim"
	"geosel/internal/textsim"
)

// testObjects builds n random objects in the unit square with random
// weights and small keyword sets.
func testObjects(n int, seed int64) []geodata.Object {
	rng := rand.New(rand.NewSource(seed))
	vocab := textsim.NewVocabulary()
	words := []string{"cafe", "bar", "park", "gym", "zoo", "pier", "mall", "lab"}
	objs := make([]geodata.Object, n)
	for i := range objs {
		text := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		objs[i] = geodata.Object{
			ID:     i,
			Loc:    geo.Pt(rng.Float64(), rng.Float64()),
			Weight: rng.Float64(),
			Vec:    textsim.FromText(vocab, text),
			Text:   text,
		}
	}
	return objs
}

func hybridMetric(t *testing.T) sim.Metric {
	t.Helper()
	m, err := sim.NewHybrid(0.5, math.Sqrt2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestScoreEmpty(t *testing.T) {
	objs := testObjects(10, 1)
	if got := Score(objs, nil, sim.Cosine{}, AggMax); got != 0 {
		t.Errorf("empty selection score = %v", got)
	}
	if got := Score(nil, nil, sim.Cosine{}, AggMax); got != 0 {
		t.Errorf("empty objects score = %v", got)
	}
}

func TestScoreSingleSelfRepresentation(t *testing.T) {
	// A selection containing every object scores the weighted mean of
	// self-similarities = mean weight (self-sim is 1).
	objs := testObjects(20, 2)
	all := make([]int, len(objs))
	var wsum float64
	for i := range objs {
		all[i] = i
		wsum += objs[i].Weight
	}
	m := sim.EuclideanProximity{MaxDist: 2}
	got := Score(objs, all, m, AggMax)
	want := wsum / float64(len(objs))
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("score = %v, want %v", got, want)
	}
}

func TestScoreMonotone(t *testing.T) {
	// Lemma 4.2: S ⊆ T implies Sim(O,S) <= Sim(O,T) under AggMax.
	objs := testObjects(30, 3)
	m := hybridMetric(t)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(objs))
		cut1 := 1 + rng.Intn(10)
		cut2 := cut1 + rng.Intn(len(objs)-cut1)
		s := perm[:cut1]
		tt := perm[:cut2]
		if Score(objs, s, m, AggMax) > Score(objs, tt, m, AggMax)+1e-12 {
			t.Fatalf("monotonicity violated: |S|=%d |T|=%d", cut1, cut2)
		}
	}
}

func TestSubmodularity(t *testing.T) {
	// Lemma 4.1: marginal gains shrink as the set grows, under AggMax.
	objs := testObjects(25, 5)
	m := hybridMetric(t)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		perm := rng.Perm(len(objs))
		cut1 := rng.Intn(8)
		cut2 := cut1 + rng.Intn(8)
		if cut2 >= len(objs) {
			cut2 = len(objs) - 1
		}
		s := perm[:cut1]
		tt := perm[:cut2]
		v := perm[len(perm)-1]
		gainS := Score(objs, append(append([]int{}, s...), v), m, AggMax) - Score(objs, s, m, AggMax)
		gainT := Score(objs, append(append([]int{}, tt...), v), m, AggMax) - Score(objs, tt, m, AggMax)
		if gainS < gainT-1e-12 {
			t.Fatalf("submodularity violated: gainS %v < gainT %v", gainS, gainT)
		}
	}
}

// simToSet returns Sim(o, S) of Equation 1 by its definition: how well
// the selected objects represent o, the similarity of its most similar
// one.
func simToSet(objs []geodata.Object, o int, sel []int, m sim.Metric) float64 {
	best := 0.0
	for _, s := range sel {
		if v := m.Sim(&objs[o], &objs[s]); v > best {
			best = v
		}
	}
	return best
}

func TestSimToSetAggregations(t *testing.T) {
	vocab := textsim.NewVocabulary()
	objs := []geodata.Object{
		{Loc: geo.Pt(0, 0), Weight: 1, Vec: textsim.FromText(vocab, "a b")},
		{Loc: geo.Pt(1, 0), Weight: 1, Vec: textsim.FromText(vocab, "a")},
		{Loc: geo.Pt(0, 1), Weight: 1, Vec: textsim.FromText(vocab, "b")},
	}
	m := sim.Cosine{}
	sel := []int{1, 2}
	s01 := m.Sim(&objs[0], &objs[1])
	s02 := m.Sim(&objs[0], &objs[2])
	if got, want := simToSet(objs, 0, sel, m), math.Max(s01, s02); math.Abs(got-want) > 1e-12 {
		t.Errorf("max = %v, want %v", got, want)
	}
	if got := simToSet(objs, 0, nil, m); got != 0 {
		t.Errorf("empty set = %v", got)
	}
}

func TestSatisfiesVisibility(t *testing.T) {
	objs := []geodata.Object{
		{Loc: geo.Pt(0, 0)}, {Loc: geo.Pt(0.5, 0)}, {Loc: geo.Pt(1, 0)},
	}
	if !SatisfiesVisibility(objs, []int{0, 1, 2}, 0.5) {
		t.Error("distances exactly theta satisfy the constraint")
	}
	if SatisfiesVisibility(objs, []int{0, 1, 2}, 0.51) {
		t.Error("0.5 < 0.51 should violate")
	}
	if !SatisfiesVisibility(objs, []int{0}, 10) {
		t.Error("singleton always satisfies")
	}
	if !SatisfiesVisibility(objs, nil, 10) {
		t.Error("empty set always satisfies")
	}
}

func TestGreedyBasic(t *testing.T) {
	objs := testObjects(200, 7)
	m := hybridMetric(t)
	sel := &Selector{Config: engine.Config{K: 10, Theta: 0.05, Metric: m}, Objects: objs}
	res, err := sel.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 10 {
		t.Fatalf("selected %d, want 10", len(res.Selected))
	}
	if !SatisfiesVisibility(objs, res.Selected, 0.05) {
		t.Fatal("visibility constraint violated")
	}
	want := Score(objs, res.Selected, m, AggMax)
	if math.Abs(res.Score-want) > 1e-9 {
		t.Fatalf("reported score %v, recomputed %v", res.Score, want)
	}
	if res.Rounds != 10 {
		t.Errorf("rounds = %d", res.Rounds)
	}
	if res.Evals <= 0 {
		t.Error("no marginal evaluations counted")
	}
}

func TestGreedyValidation(t *testing.T) {
	objs := testObjects(10, 8)
	m := sim.Cosine{}
	cases := []struct {
		name string
		sel  Selector
	}{
		{"negative K", Selector{Config: engine.Config{K: -1, Metric: m}, Objects: objs}},
		{"negative theta", Selector{Config: engine.Config{K: 1, Theta: -0.1, Metric: m}, Objects: objs}},
		{"nil metric", Selector{Config: engine.Config{K: 1}, Objects: objs}},
		{"candidate out of range", Selector{Config: engine.Config{K: 1, Metric: m}, Objects: objs, Candidates: []int{99}}},
		{"forced out of range", Selector{Config: engine.Config{K: 1, Metric: m}, Objects: objs, Forced: []int{-3}}},
		{"too many forced", Selector{Config: engine.Config{K: 1, Metric: m}, Objects: objs, Forced: []int{0, 1}}},
		{"gains without candidates", Selector{Config: engine.Config{K: 1, Metric: m}, Objects: objs, InitialGains: []float64{1}}},
		{"gains size mismatch", Selector{Config: engine.Config{K: 1, Metric: m}, Objects: objs, Candidates: []int{0, 1}, InitialGains: []float64{1}}},
	}
	for _, c := range cases {
		if _, err := c.sel.Run(context.Background()); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Conflicting forced set.
	close1 := []geodata.Object{{Loc: geo.Pt(0, 0)}, {Loc: geo.Pt(0.001, 0)}}
	bad := Selector{Config: engine.Config{K: 2, Theta: 0.1, Metric: m}, Objects: close1, Forced: []int{0, 1}}
	if _, err := bad.Run(context.Background()); err == nil {
		t.Error("conflicting forced set: expected error")
	}
}

func TestGreedyFewerThanK(t *testing.T) {
	// With a huge theta only one object can be displayed.
	objs := testObjects(50, 9)
	m := hybridMetric(t)
	sel := &Selector{Config: engine.Config{K: 10, Theta: 10, Metric: m}, Objects: objs}
	res, err := sel.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Fatalf("selected %d, want 1 under huge theta", len(res.Selected))
	}
}

func TestGreedyKZero(t *testing.T) {
	objs := testObjects(10, 10)
	sel := &Selector{Config: engine.Config{K: 0, Metric: sim.Cosine{}}, Objects: objs}
	res, err := sel.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 || res.Score != 0 {
		t.Errorf("K=0: %+v", res)
	}
}

func TestGreedyEmptyObjects(t *testing.T) {
	sel := &Selector{Config: engine.Config{K: 5, Theta: 0.1, Metric: sim.Cosine{}}, Objects: nil}
	res, err := sel.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 {
		t.Errorf("selected %v from empty input", res.Selected)
	}
}

func TestGreedyPicksHighestGainFirst(t *testing.T) {
	// Construct a clear winner: a heavy cluster of identical texts and
	// one outlier. The first pick must represent the cluster.
	vocab := textsim.NewVocabulary()
	var objs []geodata.Object
	for i := 0; i < 9; i++ {
		objs = append(objs, geodata.Object{
			Loc: geo.Pt(0.1+0.01*float64(i), 0.1), Weight: 1,
			Vec: textsim.FromText(vocab, "cluster")})
	}
	objs = append(objs, geodata.Object{
		Loc: geo.Pt(0.9, 0.9), Weight: 1,
		Vec: textsim.FromText(vocab, "outlier")})
	sel := &Selector{Config: engine.Config{K: 1, Theta: 0, Metric: sim.Cosine{}}, Objects: objs}
	res, err := sel.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected[0] >= 9 {
		t.Errorf("first pick %d should come from the cluster", res.Selected[0])
	}
}

func TestGreedyMatchesNaive(t *testing.T) {
	// Lazy forward is an optimization: it must select exactly the same
	// objects as the naive greedy (ties are broken identically by id).
	for seed := int64(0); seed < 8; seed++ {
		objs := testObjects(120, 20+seed)
		m := hybridMetric(t)
		lazy := &Selector{Config: engine.Config{K: 12, Theta: 0.04, Metric: m}, Objects: objs}
		naive := &Selector{Config: engine.Config{K: 12, Theta: 0.04, Metric: m, DisableLazy: true}, Objects: objs}
		r1, err := lazy.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		r2, err := naive.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Selected) != len(r2.Selected) {
			t.Fatalf("seed %d: lazy %d vs naive %d picks", seed, len(r1.Selected), len(r2.Selected))
		}
		for i := range r1.Selected {
			if r1.Selected[i] != r2.Selected[i] {
				t.Fatalf("seed %d: pick %d differs: %d vs %d", seed, i, r1.Selected[i], r2.Selected[i])
			}
		}
		if r1.Evals >= r2.Evals {
			t.Errorf("seed %d: lazy evals %d not fewer than naive %d", seed, r1.Evals, r2.Evals)
		}
	}
}

// columnStarts returns where the grid NewGrid builds over objs puts its
// columns after the first, inside (0, 1]: for each, the smallest x it
// holds. Probes at positions 2 and 3 do not move the layout as long as
// the corners pin the bounds and the count stays. AppendRegion lists a
// row's cells left to right and the positions inside one cell
// ascending, so with x at position 2 and the reference at position 3,
// position 3 comes first exactly when x lies in a later column; a
// bisection over
// the bit patterns of positive floats, which order as the floats do,
// finds each column's first x.
func columnStarts(objs []geodata.Object) []float64 {
	probe := append([]geodata.Object(nil), objs...)
	unit := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)}
	later := func(x, than float64) bool {
		probe[2].Loc, probe[3].Loc = geo.Pt(x, 0.5), geo.Pt(than, 0.5)
		for _, p := range geodata.NewGrid(probe).AppendRegion(nil, probe, unit) {
			if p == 2 || p == 3 {
				return p == 3
			}
		}
		return false
	}
	var starts []float64
	for from := 0.0; later(1, from); {
		lo, hi := math.Float64bits(from), math.Float64bits(1)
		for hi-lo > 1 {
			if mid := lo + (hi-lo)/2; later(math.Float64frombits(mid), from) {
				hi = mid
			} else {
				lo = mid
			}
		}
		from = math.Float64frombits(hi)
		starts = append(starts, from)
	}
	return starts
}

// TestGreedyGridMatchesLinear holds the grid's conflict removal to the
// linear scan (DisableGrid), bit for bit: the same picks, Gains and
// Score bits, Evals and Rounds. It runs θ from 1e-300 to +Inf, the
// benchmark's 0.003·side, the grid's own cell side and the lattice's
// spacing (pairs exactly θ apart do not conflict), over random
// objects, objects stacked on a 4×4 lattice, the same lattice shrunk
// to 1e-200 (where Dist underflows to 0), and objects on the grid's
// cell boundaries; each with every object a candidate, with only the
// even ones (the odd ones, non-candidates, lie within θ of them), and
// with a forced non-candidate on top.
func TestGreedyGridMatchesLinear(t *testing.T) {
	m := hybridMetric(t)
	for seed := int64(0); seed < 8; seed++ {
		random := testObjects(150, 40+seed)
		stacked := testObjects(150, 40+seed)
		tiny := testObjects(150, 40+seed)
		rng := rand.New(rand.NewSource(seed))
		for i := range stacked {
			x, y := float64(rng.Intn(4))/3, float64(rng.Intn(4))/3
			stacked[i].Loc = geo.Pt(x, y)
			// 1e-200 apart, whose squares underflow: Dist reads 0.
			tiny[i].Loc = geo.Pt(x*1e-200, y*1e-200)
		}
		// Pinning the corners fixes the grid over [0,1]², so every object
		// moved inside the square keeps the layout columnStarts finds; the
		// square layout has the same boundaries on both axes.
		edges := testObjects(150, 40+seed)
		edges[0].Loc, edges[1].Loc = geo.Pt(0, 0), geo.Pt(1, 1)
		bounds := columnStarts(edges)
		if len(bounds) < 2 {
			t.Fatalf("seed %d: cell boundaries %v; want at least two inside the unit square", seed, bounds)
		}
		for i := 2; i < len(edges); i++ {
			x, y := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
			if i%3 == 0 {
				y = rng.Float64()
			}
			edges[i].Loc = geo.Pt(x, y)
		}
		cell := bounds[1] - bounds[0]

		evens := []int{}
		for i := 0; i < 150; i += 2 {
			evens = append(evens, i)
		}
		for _, layout := range []struct {
			name string
			objs []geodata.Object
		}{{"random", random}, {"stacked", stacked}, {"tiny", tiny}, {"edges", edges}} {
			for _, theta := range []float64{1e-300, 0.003, 0.06, cell, 1.0 / 3, 1e300, math.Inf(1)} {
				for _, run := range []struct {
					name          string
					cands, forced []int
				}{{"all", nil, nil}, {"evens", evens, nil}, {"forced", evens, []int{1}}} {
					var res [2]*Result
					for j, disable := range []bool{true, false} {
						s := &Selector{
							Config:     engine.Config{K: 15, Theta: theta, Metric: m, DisableGrid: disable},
							Objects:    layout.objs,
							Candidates: run.cands,
							Forced:     run.forced,
						}
						r, err := s.Run(context.Background())
						if err != nil {
							t.Fatal(err)
						}
						res[j] = r
					}
					assertSameRun(t, res[0], res[1], fmt.Sprintf("seed %d, %s, θ = %v, %s: grid vs linear", seed, layout.name, theta, run.name))
				}
			}
		}
	}
}

// TestTinyThetaKeepsSeparation runs four objects, two of them
// co-located with different text, so that without the visibility
// constraint the greedy takes both: at every θ, however small, the
// selection must keep them apart. A θ whose grid would need more cells
// than an int can count (1e-300 over a 0.6-wide region) must still
// find the co-located conflict.
func TestTinyThetaKeepsSeparation(t *testing.T) {
	vocab := textsim.NewVocabulary()
	objs := []geodata.Object{
		{ID: 0, Loc: geo.Pt(0.2, 0.2), Weight: 1, Vec: textsim.FromText(vocab, "pier")},
		{ID: 1, Loc: geo.Pt(0.5, 0.5), Weight: 1, Vec: textsim.FromText(vocab, "cafe")},
		{ID: 2, Loc: geo.Pt(0.5, 0.5), Weight: 1, Vec: textsim.FromText(vocab, "museum")},
		{ID: 3, Loc: geo.Pt(0.8, 0.8), Weight: 1, Vec: textsim.FromText(vocab, "zoo")},
	}
	for _, theta := range []float64{1e-3, 1e-17, 1e-300} {
		for _, lazy := range []bool{true, false} {
			s := &Selector{
				Config:  engine.Config{K: 4, Theta: theta, Metric: sim.Cosine{}, DisableLazy: !lazy},
				Objects: objs,
			}
			res, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Selected) != 3 || !SatisfiesVisibility(objs, res.Selected, theta) {
				t.Fatalf("θ = %v, lazy %v: selected %v, want three θ-separated objects", theta, lazy, res.Selected)
			}
		}
	}
}

func TestGreedyApproximationRatio(t *testing.T) {
	// Theorem 4.4: greedy achieves at least OPT/8. On random small
	// instances it is usually much better; we assert the guarantee.
	for seed := int64(0); seed < 12; seed++ {
		objs := testObjects(12, 60+seed)
		m := hybridMetric(t)
		k, theta := 3, 0.15
		g := &Selector{Config: engine.Config{K: k, Theta: theta, Metric: m}, Objects: objs}
		res, err := g.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := Exact(objs, k, theta, m)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score < opt/8-1e-12 {
			t.Fatalf("seed %d: greedy %v below OPT/8 = %v", seed, res.Score, opt/8)
		}
		if res.Score > opt+1e-12 {
			t.Fatalf("seed %d: greedy %v exceeds OPT %v (exact solver broken?)", seed, res.Score, opt)
		}
	}
}

func TestGreedyCandidatesOnly(t *testing.T) {
	objs := testObjects(60, 80)
	m := hybridMetric(t)
	cands := []int{0, 5, 10, 15, 20, 25, 30}
	sel := &Selector{Config: engine.Config{K: 4, Theta: 0, Metric: m}, Objects: objs, Candidates: cands}
	res, err := sel.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[int]bool{}
	for _, c := range cands {
		allowed[c] = true
	}
	for _, s := range res.Selected {
		if !allowed[s] {
			t.Fatalf("selected %d outside candidate set", s)
		}
	}
}

func TestGreedyForced(t *testing.T) {
	objs := testObjects(80, 81)
	m := hybridMetric(t)
	forced := []int{3, 17}
	sel := &Selector{Config: engine.Config{K: 6, Theta: 0.02, Metric: m}, Objects: objs, Forced: forced}
	res, err := sel.Run(context.Background())
	if err != nil {
		// Forced pair may conflict at this theta; regenerate would be
		// noise — just require the specific error.
		t.Skipf("forced set conflicts at theta: %v", err)
	}
	if res.Selected[0] != 3 || res.Selected[1] != 17 {
		t.Fatalf("forced objects not first: %v", res.Selected)
	}
	if len(res.Selected) > 6 {
		t.Fatalf("selected %d > K", len(res.Selected))
	}
	if !SatisfiesVisibility(objs, res.Selected, 0.02) {
		t.Fatal("visibility violated with forced set")
	}
	// No duplicates.
	seen := map[int]bool{}
	for _, s := range res.Selected {
		if seen[s] {
			t.Fatalf("duplicate selection %d", s)
		}
		seen[s] = true
	}
}

func TestGreedyForcedEqualsK(t *testing.T) {
	objs := []geodata.Object{
		{Loc: geo.Pt(0.1, 0.1), Weight: 1},
		{Loc: geo.Pt(0.9, 0.9), Weight: 1},
		{Loc: geo.Pt(0.5, 0.5), Weight: 1},
	}
	sel := &Selector{Config: engine.Config{K: 2, Theta: 0.1, Metric: sim.EuclideanProximity{MaxDist: 2}}, Objects: objs, Forced: []int{0, 1}}
	res, err := sel.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Fatalf("selected %v, want exactly the forced pair", res.Selected)
	}
}

func TestGreedyInitialGainsUpperBounds(t *testing.T) {
	// Supplying valid upper bounds must not change the selection, only
	// the evaluation count profile (this is the prefetch correctness
	// property).
	for seed := int64(0); seed < 6; seed++ {
		objs := testObjects(100, 100+seed)
		m := hybridMetric(t)
		cands := make([]int, len(objs))
		for i := range cands {
			cands[i] = i
		}
		// A trivially valid upper bound: Σ ω (since Sim <= 1).
		var wsum float64
		for i := range objs {
			wsum += objs[i].Weight
		}
		bounds := make([]float64, len(cands))
		for i := range bounds {
			bounds[i] = wsum
		}
		plain := &Selector{Config: engine.Config{K: 8, Theta: 0.05, Metric: m}, Objects: objs}
		seeded := &Selector{Config: engine.Config{K: 8, Theta: 0.05, Metric: m}, Objects: objs, Candidates: cands, InitialGains: bounds}
		r1, err := plain.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		r2, err := seeded.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Selected) != len(r2.Selected) {
			t.Fatalf("seed %d: %d vs %d", seed, len(r1.Selected), len(r2.Selected))
		}
		for i := range r1.Selected {
			if r1.Selected[i] != r2.Selected[i] {
				t.Fatalf("seed %d: selection differs at %d", seed, i)
			}
		}
	}
}

func TestGreedyTightInitialGainsReduceEvals(t *testing.T) {
	// Tight upper bounds (the exact initial marginals) let lazy forward
	// prune: evals should be no more than the exact-init run, which
	// evaluates every candidate up front.
	objs := testObjects(300, 200)
	m := hybridMetric(t)
	cands := make([]int, len(objs))
	for i := range cands {
		cands[i] = i
	}
	// Exact initial marginals = Σ ω·Sim(o, c).
	bounds := make([]float64, len(cands))
	for i, c := range cands {
		var g float64
		for j := range objs {
			g += objs[j].Weight * m.Sim(&objs[j], &objs[c])
		}
		bounds[i] = g
	}
	plain := &Selector{Config: engine.Config{K: 10, Theta: 0.03, Metric: m}, Objects: objs}
	seeded := &Selector{Config: engine.Config{K: 10, Theta: 0.03, Metric: m}, Objects: objs, Candidates: cands, InitialGains: bounds}
	r1, err := plain.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := seeded.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Evals >= r1.Evals {
		t.Errorf("seeded evals %d not below plain %d", r2.Evals, r1.Evals)
	}
	for i := range r1.Selected {
		if r1.Selected[i] != r2.Selected[i] {
			t.Fatalf("selection differs at %d", i)
		}
	}
}

func TestGreedyDeterministic(t *testing.T) {
	objs := testObjects(100, 400)
	m := hybridMetric(t)
	var prev []int
	for trial := 0; trial < 3; trial++ {
		sel := &Selector{Config: engine.Config{K: 8, Theta: 0.05, Metric: m}, Objects: objs}
		res, err := sel.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			for i := range prev {
				if prev[i] != res.Selected[i] {
					t.Fatal("greedy is not deterministic")
				}
			}
		}
		prev = res.Selected
	}
}

func TestExactSmall(t *testing.T) {
	// Hand-checkable instance: two far clusters, k=2, theta small.
	vocab := textsim.NewVocabulary()
	mk := func(x, y float64, text string) geodata.Object {
		return geodata.Object{Loc: geo.Pt(x, y), Weight: 1, Vec: textsim.FromText(vocab, text)}
	}
	objs := []geodata.Object{
		mk(0.1, 0.1, "a"), mk(0.12, 0.1, "a"), mk(0.11, 0.12, "a"),
		mk(0.9, 0.9, "b"), mk(0.88, 0.9, "b"),
	}
	selIdx, score, err := Exact(objs, 2, 0.01, sim.Cosine{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(score-1) > 1e-9 {
		t.Fatalf("score = %v, want 1 (one pick per text cluster)", score)
	}
	hasA, hasB := false, false
	for _, s := range selIdx {
		if s < 3 {
			hasA = true
		} else {
			hasB = true
		}
	}
	if !hasA || !hasB {
		t.Fatalf("selection %v should span both clusters", selIdx)
	}
}

func TestExactErrors(t *testing.T) {
	objs := testObjects(30, 500)
	if _, _, err := Exact(objs, 2, 0.1, sim.Cosine{}); err == nil {
		t.Error("oversized instance should fail")
	}
	small := testObjects(5, 501)
	if _, _, err := Exact(small, 2, 0.1, nil); err == nil {
		t.Error("nil metric should fail")
	}
	if _, _, err := Exact(small, -1, 0.1, sim.Cosine{}); err == nil {
		t.Error("negative k should fail")
	}
}

func TestExactRespectsVisibility(t *testing.T) {
	objs := testObjects(10, 502)
	selIdx, _, err := Exact(objs, 4, 0.3, hybridMetric(t))
	if err != nil {
		t.Fatal(err)
	}
	if !SatisfiesVisibility(objs, selIdx, 0.3) {
		t.Fatal("exact solution violates visibility")
	}
}

func TestRepresentatives(t *testing.T) {
	vocab := textsim.NewVocabulary()
	objs := []geodata.Object{
		{Loc: geo.Pt(0, 0), Weight: 1, Vec: textsim.FromText(vocab, "x")},
		{Loc: geo.Pt(1, 1), Weight: 1, Vec: textsim.FromText(vocab, "y")},
		{Loc: geo.Pt(0, 0.1), Weight: 1, Vec: textsim.FromText(vocab, "x x")},
	}
	sel := []int{0, 1}
	rep := Representatives(objs, sel, sim.Cosine{})
	if rep[0] != 0 || rep[1] != 1 {
		t.Errorf("selected objects should represent themselves: %v", rep)
	}
	if rep[2] != 0 {
		t.Errorf("object 2 should map to 0, got %d", rep[2])
	}
	if got := Representatives(objs, nil, sim.Cosine{}); got[0] != -1 {
		t.Errorf("empty selection should map to -1: %v", got)
	}
}

func TestPaperWorkedExample(t *testing.T) {
	// Modeled on Appendix D, Example D.1: six objects with a known
	// pairwise similarity table, unit weights, k = 2. o1 has the top
	// initial gain (2.6, the paper's number) and is picked first; o2
	// and o5 conflict with o1 and are discarded; after lazy
	// re-evaluation the second pick is o4 (marginal 1.05, beating o3's
	// 0.95 and o6's 1.0).
	simTable := map[[2]int]float64{
		{0, 1}: 0.9, {0, 2}: 0.2, {0, 3}: 0.5, {0, 4}: 0, {0, 5}: 0,
		{1, 2}: 0.2, {1, 3}: 0.2, {1, 4}: 0, {1, 5}: 0,
		{2, 3}: 0.65, {2, 4}: 0, {2, 5}: 0,
		{3, 4}: 0, {3, 5}: 0.1,
		{4, 5}: 0,
	}
	lookup := func(i, j int) float64 {
		if i == j {
			return 1
		}
		if i > j {
			i, j = j, i
		}
		return simTable[[2]int{i, j}]
	}
	// Geometry: o2 (index 1) and o5 (index 4) within theta of o1
	// (index 0); all else far apart.
	objs := []geodata.Object{
		{ID: 1, Loc: geo.Pt(0.50, 0.50), Weight: 1},
		{ID: 2, Loc: geo.Pt(0.52, 0.50), Weight: 1},
		{ID: 3, Loc: geo.Pt(0.80, 0.80), Weight: 1},
		{ID: 4, Loc: geo.Pt(0.20, 0.80), Weight: 1},
		{ID: 5, Loc: geo.Pt(0.51, 0.52), Weight: 1},
		{ID: 6, Loc: geo.Pt(0.20, 0.20), Weight: 1},
	}
	metric := sim.Func(func(a, b *geodata.Object) float64 {
		return lookup(a.ID-1, b.ID-1)
	})
	theta := 0.05
	sel := &Selector{Config: engine.Config{K: 2, Theta: theta, Metric: metric}, Objects: objs}
	res, err := sel.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Fatalf("selected %v", res.Selected)
	}
	if objs[res.Selected[0]].ID != 1 {
		t.Errorf("first pick id = %d, want o1", objs[res.Selected[0]].ID)
	}
	if second := objs[res.Selected[1]].ID; second != 4 {
		t.Errorf("second pick id = %d, want o4", second)
	}
	// The paper's marginal for o1: (1+0.9+0.2+0.5+0+0) = 2.6.
	e := newEvaluator(nil, objs, metric)
	if g := e.marginal(make([]float64, 6), 0); math.Abs(g-2.6) > 1e-9 {
		t.Errorf("initial marginal of o1 = %v, want 2.6", g)
	}
}

func TestGainsNonIncreasing(t *testing.T) {
	// Submodularity (Lemma 4.1) implies the greedy pick gains decay
	// monotonically; verify on random instances for both execution
	// paths and check the score identity Σ gains / n == Score (for
	// AggMax with no forced set).
	for seed := int64(0); seed < 6; seed++ {
		objs := testObjects(150, 600+seed)
		m := hybridMetric(t)
		for _, naive := range []bool{false, true} {
			sel := &Selector{Config: engine.Config{K: 15, Theta: 0.03, Metric: m, DisableLazy: naive}, Objects: objs}
			res, err := sel.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Gains) != len(res.Selected) {
				t.Fatalf("gains %d, picks %d", len(res.Gains), len(res.Selected))
			}
			var sum float64
			for i, g := range res.Gains {
				if i > 0 && g > res.Gains[i-1]+1e-9 {
					t.Fatalf("seed %d naive=%v: gain %v after %v", seed, naive, g, res.Gains[i-1])
				}
				sum += g
			}
			if want := res.Score * float64(len(objs)); math.Abs(sum-want) > 1e-6 {
				t.Fatalf("seed %d naive=%v: gain sum %v, score·n %v", seed, naive, sum, want)
			}
		}
	}
}

func TestQuickGreedyInvariants(t *testing.T) {
	// Property-based: for arbitrary point sets, the greedy output always
	// satisfies the visibility constraint, never exceeds K, contains no
	// duplicates, and never out-scores the exact optimum.
	type instance struct {
		Xs, Ys, Ws [9]float64
	}
	m := sim.EuclideanProximity{MaxDist: 2}
	check := func(in instance) bool {
		objs := make([]geodata.Object, len(in.Xs))
		for i := range objs {
			objs[i] = geodata.Object{
				Loc:    geo.Pt(mod1(in.Xs[i]), mod1(in.Ys[i])),
				Weight: mod1(in.Ws[i]),
			}
		}
		k, theta := 3, 0.2
		sel := &Selector{Config: engine.Config{K: k, Theta: theta, Metric: m}, Objects: objs}
		res, err := sel.Run(context.Background())
		if err != nil {
			return false
		}
		if len(res.Selected) > k || !SatisfiesVisibility(objs, res.Selected, theta) {
			return false
		}
		seen := map[int]bool{}
		for _, s := range res.Selected {
			if seen[s] {
				return false
			}
			seen[s] = true
		}
		_, opt, err := Exact(objs, k, theta, m)
		if err != nil {
			return false
		}
		return res.Score <= opt+1e-9 && res.Score >= opt/8-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// mod1 maps any float into [0, 1) safely (NaN/Inf become 0).
func mod1(x float64) float64 {
	if x != x || math.IsInf(x, 0) {
		return 0
	}
	x = math.Mod(x, 1)
	if x < 0 {
		x += 1
	}
	return x
}
