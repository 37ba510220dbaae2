package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sim"
	"geosel/internal/textsim"
)

// listObjects builds n objects whose term vectors draw one to three of
// 60 words: most pairs share nothing, so residual supports are short
// and the lists carry most re-evaluations (testObjects' eight words
// leave supports longer than |O|/4 for most of a run).
func listObjects(n int, seed int64) []geodata.Object {
	rng := rand.New(rand.NewSource(seed))
	vocab := textsim.NewVocabulary()
	objs := make([]geodata.Object, n)
	for i := range objs {
		text := ""
		for k := 1 + rng.Intn(3); k > 0; k-- {
			text += fmt.Sprintf("w%d ", rng.Intn(60))
		}
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

// assertSameRun requires a run to agree with the reference run want in
// everything a Result reports, floats by bits.
func assertSameRun(t *testing.T, want, got *Result, what string) {
	t.Helper()
	if len(want.Selected) != len(got.Selected) || len(want.Gains) != len(got.Gains) {
		t.Fatalf("%s: %d picks / %d gains, want %d / %d", what, len(got.Selected), len(got.Gains), len(want.Selected), len(want.Gains))
	}
	for i := range want.Selected {
		if want.Selected[i] != got.Selected[i] {
			t.Fatalf("%s: pick %d = %d, want %d", what, i, got.Selected[i], want.Selected[i])
		}
	}
	for i := range want.Gains {
		if math.Float64bits(want.Gains[i]) != math.Float64bits(got.Gains[i]) {
			t.Fatalf("%s: gain %d = %v, want %v", what, i, got.Gains[i], want.Gains[i])
		}
	}
	if math.Float64bits(want.Score) != math.Float64bits(got.Score) {
		t.Fatalf("%s: score %v, want %v", what, got.Score, want.Score)
	}
	if want.Evals != got.Evals || want.Rounds != got.Rounds {
		t.Fatalf("%s: %d evals / %d rounds, want %d / %d", what, got.Evals, got.Rounds, want.Evals, want.Rounds)
	}
}

// TestResidualMatchesDense is the lists' contract end to end: with the
// lists switched off (Selector.residualPairs < 0: every evaluation is
// the dense pass of the parent commit) and on, a run returns the same
// Selected, Gains, Score, Evals and Rounds — on every dense
// max-aggregation metric kind, lazy and naive, with and without forced
// objects and prefetched bounds, and at several object counts.
func TestResidualMatchesDense(t *testing.T) {
	const k, theta = 12, 0.03
	for _, n := range []int{255, 256, 257, 1000} {
		objs := listObjects(n, int64(n))
		metrics := map[string]sim.Metric{
			"cosine": sim.Cosine{},
			"func":   sim.Func(sim.Cosine{}.Sim),
			"hybrid": hybridMetric(t),
		}
		// Forced objects must be θ-separated: two picks of a plain run.
		forced := mustRun(t, &Selector{Config: engine.Config{K: 2, Theta: theta, Metric: sim.Cosine{}}, Objects: objs}).Selected
		var sumW float64
		for i := range objs {
			sumW += objs[i].Weight
		}
		var cands []int
		var bounds []float64
		for c := range objs {
			if c%3 != 0 {
				cands = append(cands, c)
				bounds = append(bounds, sumW) // similarities are at most 1
			}
		}
		shapes := map[string]Selector{
			"plain":             {},
			"forced+candidates": {Forced: forced, Candidates: cands},
			"forced+bounds":     {Forced: forced, Candidates: cands, InitialGains: bounds},
		}
		run := func(shape Selector, m sim.Metric, pairs int, naive bool) *Result {
			s := shape
			s.Objects = objs
			s.Config = engine.Config{K: k, Theta: theta, Metric: m, DisableLazy: naive}
			s.residualPairs = pairs
			return mustRun(t, &s)
		}
		for mname, m := range metrics {
			for sname, shape := range shapes {
				what := fmt.Sprintf("n=%d %s %s", n, mname, sname)
				assertSameRun(t, run(shape, m, -1, false), run(shape, m, 0, false), what)
			}
		}
		assertSameRun(t, run(shapes["plain"], sim.Cosine{}, -1, true), run(shapes["plain"], sim.Cosine{}, 0, true),
			fmt.Sprintf("n=%d cosine naive", n))
	}
}

// listed counts the candidates that have a recorded support.
func listed(r *residual) int {
	n := 0
	for _, l := range r.lists {
		if l.blk != 0 {
			n++
		}
	}
	return n
}

// finishRun drives a steadyState run to its end and returns its result.
func finishRun(t *testing.T, s *Selector, st *arena, res *Result) *Result {
	t.Helper()
	for len(st.selected) < s.K && st.h.Len() > 0 {
		if err := s.lazyStep(st, res); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.finish(&st.e, res, st.best, st.selected); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResidualArenaFull caps the arena at a few hundred pairs: the
// candidates evaluated after it fills stay dense for the whole run, the
// earlier ones are walked, and the result is the dense run's.
func TestResidualArenaFull(t *testing.T) {
	objs := listObjects(900, 9)
	sel := func(pairs int) *Selector {
		return &Selector{
			Config:        engine.Config{K: 25, Theta: 0.02, Metric: sim.Cosine{}},
			Objects:       objs,
			residualPairs: pairs,
		}
	}
	want := mustRun(t, sel(-1))
	assertSameRun(t, want, mustRun(t, sel(600)), "capped arena")

	s := sel(600)
	st, res := steadyState(t, context.Background(), s, 0)
	assertSameRun(t, want, finishRun(t, s, st, res), "capped arena, driven by hand")
	if st.res.pairs > 600 || st.res.grow(1) != nil {
		t.Fatalf("arena holds %d pairs and can still grow past a cap of 600", st.res.pairs)
	}
	if got := listed(&st.res); got == 0 || got >= res.Evals/3 {
		t.Fatalf("%d candidates listed over %d evaluations; want some, and most left dense by the cap", got, res.Evals)
	}

	// The same run uncapped lists nearly every candidate it evaluates.
	s = sel(0)
	st, res = steadyState(t, context.Background(), s, 0)
	assertSameRun(t, want, finishRun(t, s, st, res), "default arena, driven by hand")
	if got := listed(&st.res); got < len(objs)/2 {
		t.Fatalf("only %d of %d candidates listed without a cap", got, len(objs))
	}
}

// TestResidualLongListsStayDense forces a pick whose vocabulary nothing
// else shares, over objects that all share a term with each other: the
// pick covers nothing, every candidate's residual support is every
// other object — longer than |O|/4 — and nothing may be recorded.
func TestResidualLongListsStayDense(t *testing.T) {
	const n = 600
	rng := rand.New(rand.NewSource(3))
	vocab := textsim.NewVocabulary()
	objs := make([]geodata.Object, n)
	for i := range objs {
		text := fmt.Sprintf("common w%d", rng.Intn(5))
		if i == 0 {
			text = "solo"
		}
		objs[i] = geodata.Object{ID: i, Loc: geo.Pt(rng.Float64(), rng.Float64()), Weight: 0.5 + rng.Float64(), Vec: textsim.FromText(vocab, text)}
	}
	sel := func(pairs int) *Selector {
		return &Selector{
			Config:        engine.Config{K: 2, Metric: sim.Cosine{}},
			Objects:       objs,
			Forced:        []int{0},
			residualPairs: pairs,
		}
	}
	want := mustRun(t, sel(-1))
	assertSameRun(t, want, mustRun(t, sel(0)), "long supports")

	s := sel(0)
	st, res := steadyState(t, context.Background(), s, 0)
	got := finishRun(t, s, st, res)
	assertSameRun(t, want, got, "long supports, driven by hand")
	if got.Evals == 0 {
		t.Fatal("the run evaluated nothing")
	}
	if listed(&st.res) != 0 || len(st.res.blocks) != 0 {
		t.Fatalf("%d supports recorded in %d blocks; every one is longer than |O|/%d", listed(&st.res), len(st.res.blocks), residualShare)
	}
}

// marginals evaluates every candidate of cs with f, in order.
func marginals(f func(c int) float64, cs []int) []float64 {
	out := make([]float64, len(cs))
	for k, c := range cs {
		out[k] = f(c)
	}
	return out
}

// TestMarginalBatchIgnoresListsAcrossBests pins the ownership rule: the
// lists belong to a residual bound to one aggregation state, and the
// bare evaluator — whose marginal takes any best — never sees them. After a residual has recorded and walked supports against a
// high state, the evaluator asked about a lower one returns the dense
// value, which the recorded supports (too short for it) would not give.
func TestMarginalBatchIgnoresListsAcrossBests(t *testing.T) {
	objs := listObjects(700, 5)
	e := newEvaluator(nil, objs, sim.Cosine{})
	low := make([]float64, len(objs))
	e.absorb(low, 11)
	high := append([]float64(nil), low...)
	for _, p := range []int{42, 300, 650} {
		e.absorb(high, p)
	}
	cs := make([]int, 0, 100)
	for c := 0; c < len(objs); c += 7 {
		cs = append(cs, c)
	}

	r := new(residual)
	r.reset(e, high, 0)
	recorded := marginals(r.marginal, cs)
	if listed(r) == 0 {
		t.Fatal("nothing recorded against the high state")
	}
	walked := marginals(r.marginal, cs)
	fresh := newEvaluator(nil, objs, sim.Cosine{})
	dense := func(best []float64) func(int) float64 {
		return func(c int) float64 { return fresh.marginal(best, c) }
	}
	for k, g := range marginals(dense(high), cs) {
		if recorded[k] != g || walked[k] != g {
			t.Fatalf("candidate %d against the bound state: recorded %v, walked %v, dense %v", cs[k], recorded[k], walked[k], g)
		}
	}

	got := marginals(func(c int) float64 { return e.marginal(low, c) }, cs)
	larger := 0
	for k, g := range marginals(dense(low), cs) {
		if got[k] != g {
			t.Fatalf("candidate %d against a lower state: evaluator returned %v, dense %v", cs[k], got[k], g)
		}
		if g > walked[k] {
			larger++
		}
	}
	if larger == 0 {
		t.Fatal("the lower state changed no gain: the test cannot tell a list from a dense pass")
	}
}

// TestResidualWalkCancelled cancels the context between the dense
// evaluation that records a candidate's support and the evaluation
// that would walk it: no metric call and no chunk boundary stands
// between the two, and the step must still fail with ctx.Err() rather
// than hand a gain back to the heap.
func TestResidualWalkCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &Selector{
		Config:  engine.Config{K: 50, Theta: 0.02, Metric: sim.Cosine{}},
		Objects: listObjects(900, 21),
	}
	st, res := steadyState(t, ctx, s, 0)
	for {
		top, ok := st.h.Peek()
		if !ok || len(st.selected) == s.K {
			t.Fatal("the run ended before a listed candidate came up for re-evaluation")
		}
		if top.Iter != st.iter && st.res.lists[top.ID].blk != 0 {
			break
		}
		if err := s.lazyStep(st, res); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if err := s.lazyStep(st, res); !errors.Is(err, context.Canceled) {
		t.Fatalf("walk under a cancelled context: err = %v, want context.Canceled", err)
	}
	if err := s.finish(&st.e, res, st.best, st.selected); !errors.Is(err, context.Canceled) || res.Selected != nil {
		t.Fatalf("cancelled run finished: err = %v, selected = %v", err, res.Selected)
	}
}

// fuzzListObjects decodes data[1:] as objects of up to three (term,
// weight) pairs plus an ω, seven bytes each, and tiles them 1 + data[0]%48
// times so a short input still makes long rows, most of them twins.
func fuzzListObjects(data []byte) []geodata.Object {
	if len(data) < 8 {
		return nil
	}
	reps := 1 + int(data[0]%48)
	var base []geodata.Object
	for rec := data[1:]; len(rec) >= 7 && len(base) < 64; rec = rec[7:] {
		tf := make(map[int]float64)
		for k := 0; k < 6; k += 2 {
			tf[int(rec[k]%32)] = float64(rec[k+1]%16) / 4 // 0 drops the term
		}
		base = append(base, geodata.Object{Weight: float64(rec[6]) / 16, Vec: textsim.NewVector(tf)})
	}
	objs := make([]geodata.Object, 0, reps*len(base))
	for r := 0; r < reps; r++ {
		for _, o := range base {
			o.ID = len(objs)
			objs = append(objs, o)
		}
	}
	return objs
}

// FuzzResidualWalk absorbs a decoded pick sequence into a decoded
// region and, after every pick, evaluates every object as a candidate
// through the lists — recording at first, walking afterwards — and
// through a bare evaluator: the gains must agree bit for bit.
func FuzzResidualWalk(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{47, 1, 2, 3, 4, 5, 6, 7, 1, 2, 9, 9, 5, 5, 200})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("the same seven bytes, the same seven bytes, and then some others"))
	f.Fuzz(func(t *testing.T, data []byte) {
		objs := fuzzListObjects(data)
		if len(objs) == 0 {
			return
		}
		e := newEvaluator(nil, objs, sim.Cosine{})
		best := make([]float64, len(objs))
		r := new(residual)
		r.reset(e, best, 0)
		for j := 0; j < len(data) && j < 6; j++ {
			e.absorb(best, (int(data[j])*131+j*17)%len(objs))
			for c := range objs {
				if got, want := r.marginal(c), e.marginal(best, c); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("after pick %d, candidate %d of %d: lists %v, dense %v", j, c, len(objs), got, want)
				}
			}
		}
	})
}
