package core

import (
	"context"
	"fmt"

	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/invariant"
	"geosel/internal/lazyheap"
)

// Selector configures one run of the greedy selection algorithm. The
// shared knobs — K, Theta, Metric and the Disable* ablation switches —
// live in the embedded engine.Config (see that package for per-field
// semantics); the fields declared here are the per-run inputs. The
// zero value is not runnable; populate at least Objects and Config{K,
// Theta, Metric}. A Selector is single-use: build a new one per query
// (a second Run returns an error).
type Selector struct {
	// Config carries the unified engine knobs. Layers above forward
	// their embedded config here wholesale, with Theta resolved to an
	// absolute distance; core ignores the session/serving fields
	// (ThetaFrac, MaxZoomOutScale, RequestTimeout, SessionTTL,
	// MaxSessions, AsyncPrefetch, TileCache, TileCacheCapacity).
	engine.Config

	// Objects is the set O of geospatial objects in the region of
	// interest. Scores are normalized by len(Objects).
	Objects []geodata.Object

	// Candidates holds the positions (into Objects) of the candidate set
	// G from which new objects may be selected. Nil means all objects
	// are candidates (the plain sos problem).
	Candidates []int
	// Forced holds the positions of the pre-determined set D that must
	// appear in the result (zooming/panning consistency). Forced objects
	// count toward K and must themselves satisfy the visibility
	// constraint.
	Forced []int

	// InitialGains optionally supplies an upper bound on the initial
	// marginal gain of each candidate, aligned with Candidates (which
	// must be non-nil when InitialGains is set). The bounds must be
	// valid upper bounds of the *unnormalized* marginal gain
	// Σ_o ω(o)·Sim(o, c); the pre-fetching strategy of Section 5
	// computes them from a superset region. When set, the selector
	// skips the O(|O|·|G|) exact heap initialization — the paper's
	// main bottleneck — and lazily refines bounds instead. A metric
	// with linear row sums (Cosine) never pays it: the run bounds its
	// own initial gains and keeps the lower bound per candidate.
	InitialGains []float64

	// ran flips on the first successful entry into Run, enforcing the
	// single-use contract.
	ran bool

	// residualPairs overrides the residual-support arena's pair cap
	// (residual.go); negative switches the lists off, so that every
	// evaluation is the dense pass. Test-only: results do not depend on
	// it, and the equivalence suite proves that by comparing the two.
	residualPairs int
}

// Result is the outcome of a selection run.
type Result struct {
	// Selected holds positions into Objects: first the Forced set, then
	// the greedy picks in selection order. len(Selected) <= K; it is
	// shorter when the visibility constraint exhausts the candidates.
	Selected []int
	// Score is the normalized representative score Sim(O, S) of the
	// full selection (Equation 2).
	Score float64
	// Evals counts marginal-gain computations — the paper's n_c. A
	// candidate's first costs one metric call per object in O; its later
	// ones walk the candidate's recorded residual support instead and
	// call the metric not at all, but each still counts as one. Lazy
	// forward keeps Evals far below |G|·K; exact heap initialization
	// adds |G| of them, seeding the heap with bounds (InitialGains, or
	// the metric's own linear row sums) none.
	Evals int
	// Rounds is the number of greedy iterations performed.
	Rounds int
	// Gains holds the unnormalized marginal gain of each greedy pick in
	// selection order (forced objects are not included). Submodularity
	// makes this sequence non-increasing; it is exposed for diagnostics
	// and early-stopping heuristics.
	Gains []float64
}

// Run executes the selection. It returns an error for invalid
// configurations (bad K/Theta, nil metric, out-of-range indices,
// conflicting forced objects, mis-sized InitialGains) and when called a
// second time on the same Selector.
//
// The run is one serial loop on the calling goroutine. ctx cancels it
// cooperatively: the context is checked before and after every row
// (and, on a custom metric, every 256 pairs inside one), so a
// cancelled run stops within one row of work and returns ctx.Err(). A
// nil ctx never cancels.
// Cancellation does not affect determinism — a run either completes
// with the exact same result as every other completed run, or returns
// an error and no result.
//
// Its scratch comes from a pooled arena (arena.go); the Result never
// points into it.
func (s *Selector) Run(ctx context.Context) (*Result, error) {
	a := getArena()
	defer a.release()
	return s.run(ctx, a)
}

// run is Run on a borrowed arena, which SelectRegion has already staged
// the objects into.
func (s *Selector) run(ctx context.Context, a *arena) (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("core: Selector is single-use: Run already called (build a new Selector per query)")
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	s.ran = true
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(s.Objects)
	res := &Result{}
	e := &a.e
	e.reset(ctx, s.Objects, s.Metric)
	a.best = resize(a.best, n)
	clear(a.best)

	candidates := s.Candidates
	if candidates == nil {
		a.cands = resize(a.cands, n)
		for i := range a.cands {
			a.cands[i] = i
		}
		candidates = a.cands
	}

	// Filter out candidates that duplicate or conflict with forced
	// objects.
	a.active = resize(a.active, len(candidates))[:0]
	var activeBound []float64
	if s.InitialGains != nil {
		a.bounds = resize(a.bounds, len(candidates))[:0]
	}
	for ci, c := range candidates {
		ok := true
		for _, f := range s.Forced {
			if c == f || s.Objects[c].Loc.Dist(s.Objects[f].Loc) < s.Theta {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		a.active = append(a.active, c)
		if s.InitialGains != nil {
			a.bounds = append(a.bounds, s.InitialGains[ci])
		}
	}
	if s.InitialGains != nil {
		activeBound = a.bounds
	}

	// Seed with the forced set D. The selection holds at most every
	// forced and active object, so K — a request number — never sizes an
	// allocation on its own.
	selected := make([]int, 0, min(s.K, len(s.Forced)+len(a.active)))
	for _, f := range s.Forced {
		selected = append(selected, f)
		e.absorb(a.best, f)
	}
	if err := e.fail(); err != nil {
		return nil, err
	}

	if s.DisableLazy {
		if err := s.runNaive(a, res, selected); err != nil {
			return nil, err
		}
		return res, nil
	}
	if err := s.runLazy(a, res, selected, activeBound); err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Selector) validate() error {
	// Shared knob ranges (K, Theta, Metric, ...) are validated
	// once, in the engine package; only the per-run inputs are checked
	// here.
	if err := s.Config.Validate(); err != nil {
		return err
	}
	n := len(s.Objects)
	for _, c := range s.Candidates {
		if c < 0 || c >= n {
			return fmt.Errorf("core: candidate index %d out of range [0,%d)", c, n)
		}
	}
	for _, f := range s.Forced {
		if f < 0 || f >= n {
			return fmt.Errorf("core: forced index %d out of range [0,%d)", f, n)
		}
	}
	if len(s.Forced) > s.K {
		return fmt.Errorf("core: %d forced objects exceed K = %d", len(s.Forced), s.K)
	}
	if !SatisfiesVisibility(s.Objects, s.Forced, s.Theta) {
		return fmt.Errorf("core: forced set violates the visibility constraint")
	}
	if s.InitialGains != nil {
		if s.Candidates == nil {
			return fmt.Errorf("core: InitialGains requires an explicit Candidates list")
		}
		if len(s.InitialGains) != len(s.Candidates) {
			return fmt.Errorf("core: InitialGains has %d entries for %d candidates",
				len(s.InitialGains), len(s.Candidates))
		}
	}
	return nil
}

// finish computes the final normalized score from the aggregation
// state; on a cancelled run it reports the context error instead.
func (s *Selector) finish(e *evaluator, res *Result, best []float64, selected []int) error {
	sc := e.score(best)
	if err := e.fail(); err != nil {
		return err
	}
	res.Selected = selected
	res.Score = sc
	if invariant.Enabled {
		// The correctness contract of the whole greedy run: gains are
		// monotone non-increasing (submodularity), the selection is
		// pairwise theta-separated (Definition 3.1), and no theta-circle
		// packs more than 7 selected objects (Lemma 4.3).
		invariant.NonIncreasing(res.Gains, "core: greedy marginal gains")
		dist := func(i, j int) float64 {
			return s.Objects[selected[i]].Loc.Dist(s.Objects[selected[j]].Loc)
		}
		invariant.PairwiseSeparated(len(selected), dist, s.Theta, "core: final selection visibility")
		invariant.PackingBound(len(selected), dist, s.Theta, "core: final selection packing")
	}
	return nil
}

// runLazy is Algorithm 1: heap of ⟨o, Δ(o), Iter⟩ tuples, re-evaluating
// only stale tops, with grid-accelerated conflict removal. A refreshed
// gain is exact and a stale one an upper bound (submodularity), so the
// first fresh tuple to surface is the true argmax under the heap's
// deterministic (gain, id) ordering.
func (s *Selector) runLazy(a *arena, res *Result, selected []int, bounds []float64) error {
	if err := s.startLazy(a, res, selected, bounds); err != nil {
		return err
	}
	for len(a.selected) < s.K && a.h.Len() > 0 {
		if err := s.lazyStep(a, res); err != nil {
			return err
		}
	}
	return s.finish(&a.e, res, a.best, a.selected)
}

// startLazy rebuilds the arena's heap, conflict grid and residual
// lists for the run over a.active and seeds the heap, leaving the run
// ready for its first lazyStep. The evaluator and a.best must already
// hold the run's objects and the forced set's state.
func (s *Selector) startLazy(a *arena, res *Result, selected []int, bounds []float64) error {
	e, active := &a.e, a.active
	a.selected, a.iter, a.doomed = selected, 0, a.doomed[:0]
	a.h.Reset(len(s.Objects))
	s.conflictGrid(a)
	a.res.reset(e, a.best, s.residualPairs)
	// Self-seeding: on a metric with linear row sums the run bounds its
	// own initial gains, Σ_{o∈O} ω·Sim(o, c) ≥ Δ(c | D), in one pass over
	// O — at least as tight as any Lemma 5.1–5.3 envelope sum, up to
	// rounding, so prefetched bounds are kept only where they are lower.
	a.seeds = resize(a.seeds, len(active))
	if e.rows.RowSums(a.seeds, e.w, active) {
		for i, b := range bounds {
			a.seeds[i] = min(a.seeds[i], b)
		}
		bounds = a.seeds
	}
	a.init = resize(a.init, len(active))
	if bounds != nil {
		for i, c := range active {
			// An upper bound, not a gain: mark it stale (Iter -1) so it
			// is re-evaluated before being trusted.
			a.init[i] = lazyheap.Tuple{ID: c, Gain: bounds[i], Iter: -1}
		}
		a.h.Heapify(a.init)
	} else if len(active) > 0 {
		// Exact O(|O|·|G|) heap initialization, Algorithm 1 as published
		// — the bottleneck on a metric without row sums — then bulk-loaded
		// in O(n). It runs on the bare evaluator and records no residual
		// support: against the forced set alone a support is most of what
		// the candidate resembles — too long to keep.
		for i, c := range active {
			a.init[i] = lazyheap.Tuple{ID: c, Gain: e.marginal(a.best, c), Iter: 0}
		}
		if err := e.fail(); err != nil {
			return err
		}
		res.Evals += len(active)
		a.h.Heapify(a.init)
	}
	if err := e.fail(); err != nil {
		return err
	}
	res.Gains = make([]float64, 0, min(s.K-len(selected), len(active)))
	return nil
}

// lazyStep performs one round of the lazy greedy loop: look at the top,
// either refresh it in place if stale or select it if fresh. The steady
// state allocates nothing — every buffer it touches lives in the arena.
//
//geolint:hotpath
func (s *Selector) lazyStep(a *arena, res *Result) error {
	e := &a.e
	t, _ := a.h.Peek()
	if t.Iter != a.iter {
		// Lazy re-evaluation: refresh the stale top where it stands — one
		// sift down; everything below it is bounded above by its old gain.
		gain := a.res.marginal(t.ID)
		if err := e.fail(); err != nil {
			return err
		}
		res.Evals++
		if invariant.Enabled {
			// Lemma 4.1 (submodularity) for stale heap entries, and
			// Lemmas 5.1–5.3 for prefetched bounds (Iter -1): the
			// recorded gain must upper-bound the fresh exact gain.
			invariant.UpperBound(gain, t.Gain, "core: lazy re-evaluation of candidate gain")
		}
		a.h.RefreshTop(gain, a.iter)
		return nil
	}
	// t is up to date and maximal: select it. It leaves the heap with
	// its conflicts.
	a.selected = append(a.selected, t.ID)
	res.Gains = append(res.Gains, t.Gain)
	e.absorb(a.best, t.ID)
	if err := e.fail(); err != nil {
		return err
	}
	s.removeConflicts(a, t.ID)
	if invariant.Enabled {
		// The pop-order contract, on the heap the run actually takes its
		// picks from.
		a.h.CheckTaken(t)
	}
	a.iter++
	res.Rounds++
	return nil
}

// runNaive recomputes every remaining candidate's marginal gain each
// iteration — the strawman the lazy-forward strategy improves on. The
// winner is the smallest-id candidate among the maximal gains, matching
// the lazy path's tie-breaking.
func (s *Selector) runNaive(a *arena, res *Result, selected []int) error {
	e, best, alive := &a.e, a.best, a.active
	r := &a.res
	r.reset(e, best, s.residualPairs)
	for len(selected) < s.K && len(alive) > 0 {
		bestC, bestGain := -1, -1.0
		for _, c := range alive {
			if g := r.marginal(c); g > bestGain || (g == bestGain && c < bestC) {
				bestC, bestGain = c, g
			}
		}
		if err := e.fail(); err != nil {
			return err
		}
		res.Evals += len(alive)
		selected = append(selected, bestC)
		res.Gains = append(res.Gains, bestGain)
		e.absorb(best, bestC)
		if err := e.fail(); err != nil {
			return err
		}
		keep := alive[:0]
		for _, c := range alive {
			if c == bestC || s.Objects[c].Loc.Dist(s.Objects[bestC].Loc) < s.Theta {
				continue
			}
			keep = append(keep, c)
		}
		alive = keep
		res.Rounds++
	}
	return s.finish(e, res, best, selected)
}

// conflictGrid rebuilds the arena's grid over the run's objects and
// points a.cg at it, or leaves a.cg nil when grids are disabled or
// pointless (theta == 0, or no candidate left).
func (s *Selector) conflictGrid(a *arena) {
	a.cg = nil
	if s.DisableGrid || s.Theta <= 0 || len(a.active) == 0 {
		return
	}
	a.grid.Reset(s.Objects)
	a.cg = &a.grid
}

// conflictHalfMin is the least half-side of a conflict query. Dist
// squares the offsets, and below 2⁻⁵¹¹ a square underflows: two points
// 1e-200 apart measure 0, within any positive Theta. A larger offset
// squares in the normal range and Dist is no less than it, so a square
// of half-side max(Theta, 2⁻⁵¹¹) holds every point Dist puts within
// Theta.
const conflictHalfMin = 0x1p-511

// removeConflicts drops from the heap every candidate within Theta of
// the just-selected object (Algorithm 1 lines 11–12), and the object
// itself. The grid holds every object of the run for the whole run, so
// a query also returns forced objects, non-candidates and candidates
// already gone from the heap; they are skipped by membership. The order
// of the removals does not matter: the pop order is a function of the
// heap's entries alone. The grid query fills a.doomed (reused across
// iterations) via AppendRegion, keeping the steady state
// allocation-free.
func (s *Selector) removeConflicts(a *arena, picked int) {
	loc := s.Objects[picked].Loc
	if a.cg == nil {
		// Gridless: with Theta <= 0 the visibility constraint is
		// vacuous and only the pick itself leaves the pool; otherwise
		// (grids disabled) scan the candidates linearly.
		if s.Theta > 0 {
			for _, c := range a.active {
				if c != picked && a.h.Contains(c) && s.Objects[c].Loc.Dist(loc) < s.Theta {
					a.h.Remove(c)
				}
			}
		}
		a.h.Remove(picked)
		return
	}
	// The square holds every point within Theta and more; the
	// visibility constraint is strict, so re-filter.
	a.doomed = a.cg.AppendRegion(a.doomed[:0], s.Objects, geo.RectAround(loc, max(s.Theta, conflictHalfMin)))
	for _, id := range a.doomed {
		if a.h.Contains(id) && s.Objects[id].Loc.Dist(loc) < s.Theta {
			a.h.Remove(id)
		}
	}
	// The pick leaves the pool even if a Theta edge case excluded it
	// from its own conflict neighborhood.
	a.h.Remove(picked)
}
