package core

import (
	"context"
	"fmt"

	"geosel/internal/engine"
	"geosel/internal/geodata"
	"geosel/internal/grid"
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
	// MaxSessions).
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
func (s *Selector) Run(ctx context.Context) (*Result, error) {
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
	e := newEvaluator(ctx, s.Objects, s.Metric)

	// best[i] = current Sim(o_i, S): the aggregation state per object.
	best := make([]float64, n)

	candidates := s.Candidates
	if candidates == nil {
		candidates = make([]int, n)
		for i := range candidates {
			candidates[i] = i
		}
	}

	// Filter out candidates that duplicate or conflict with forced
	// objects.
	active := make([]int, 0, len(candidates))
	var activeBound []float64
	if s.InitialGains != nil {
		activeBound = make([]float64, 0, len(candidates))
	}
	inForced := make(map[int]bool, len(s.Forced))
	for _, f := range s.Forced {
		inForced[f] = true
	}
	for ci, c := range candidates {
		if inForced[c] {
			continue
		}
		ok := true
		for _, f := range s.Forced {
			if s.Objects[c].Loc.Dist(s.Objects[f].Loc) < s.Theta {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		active = append(active, c)
		if s.InitialGains != nil {
			activeBound = append(activeBound, s.InitialGains[ci])
		}
	}

	// Seed with the forced set D. The selection holds at most every
	// forced and active object, so K — a request number — never sizes an
	// allocation on its own.
	selected := make([]int, 0, min(s.K, len(s.Forced)+len(active)))
	for _, f := range s.Forced {
		selected = append(selected, f)
		e.absorb(best, f)
	}
	if err := e.fail(); err != nil {
		return nil, err
	}

	if s.DisableLazy {
		if err := s.runNaive(e, res, best, selected, active); err != nil {
			return nil, err
		}
		return res, nil
	}
	if err := s.runLazy(e, res, best, selected, active, activeBound); err != nil {
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

// runState is the arena of one lazy greedy run: the heap, the conflict
// grid, and every scratch buffer the steady-state iteration touches.
// All buffers are sized once; after the first few iterations a lazyStep
// performs zero heap allocations (guarded by
// TestGreedySteadyStateAllocs).
type runState struct {
	h        *lazyheap.Heap
	cg       *grid.Grid
	active   []int
	selected []int
	best     []float64
	// res evaluates gains against best, through the run's
	// residual-support lists where it keeps them.
	res  *residual
	iter int
	// doomed is the conflict-removal scratch.
	doomed []int
}

// newRunState builds the arena: the heap, the conflict grid, and the
// reusable scratch buffers.
func (s *Selector) newRunState(e *evaluator, best []float64, selected, active []int) (*runState, error) {
	cg, err := s.conflictGrid(active)
	if err != nil {
		return nil, err
	}
	return &runState{
		h:        lazyheap.New(len(s.Objects)),
		cg:       cg,
		active:   active,
		selected: selected,
		best:     best,
		res:      newResidual(e, best, s.residualPairs),
	}, nil
}

// runLazy is Algorithm 1: heap of ⟨o, Δ(o), Iter⟩ tuples, re-evaluating
// only stale tops, with grid-accelerated conflict removal. A refreshed
// gain is exact and a stale one an upper bound (submodularity), so the
// first fresh tuple to surface is the true argmax under the heap's
// deterministic (gain, id) ordering.
func (s *Selector) runLazy(e *evaluator, res *Result, best []float64, selected, active []int, bounds []float64) error {
	st, err := s.startLazy(e, res, best, selected, active, bounds)
	if err != nil {
		return err
	}
	for len(st.selected) < s.K && st.h.Len() > 0 {
		if err := s.lazyStep(e, res, st); err != nil {
			return err
		}
	}
	return s.finish(e, res, best, st.selected)
}

// startLazy builds the run's arena and seeds its heap, leaving the run
// ready for its first lazyStep.
func (s *Selector) startLazy(e *evaluator, res *Result, best []float64, selected, active []int, bounds []float64) (*runState, error) {
	st, err := s.newRunState(e, best, selected, active)
	if err != nil {
		return nil, err
	}
	// Self-seeding: on a metric with linear row sums the run bounds its
	// own initial gains, Σ_{o∈O} ω·Sim(o, c) ≥ Δ(c | D), in one pass over
	// O — at least as tight as any Lemma 5.1–5.3 envelope sum, up to
	// rounding, so prefetched bounds are kept only where they are lower.
	if seeds := make([]float64, len(active)); e.rows.RowSums(seeds, e.w, active) {
		for i, b := range bounds {
			seeds[i] = min(seeds[i], b)
		}
		bounds = seeds
	}
	if bounds != nil {
		init := make([]lazyheap.Tuple, len(active))
		for i, c := range active {
			// An upper bound, not a gain: mark it stale (Iter -1) so it
			// is re-evaluated before being trusted.
			init[i] = lazyheap.Tuple{ID: c, Gain: bounds[i], Iter: -1}
		}
		st.h.Heapify(init)
	} else if len(active) > 0 {
		// Exact O(|O|·|G|) heap initialization, Algorithm 1 as published
		// — the bottleneck on a metric without row sums — then bulk-loaded
		// in O(n). It runs on the bare evaluator and records no residual
		// support: against the forced set alone a support is most of what
		// the candidate resembles — too long to keep.
		init := make([]lazyheap.Tuple, len(active))
		for i, c := range active {
			init[i] = lazyheap.Tuple{ID: c, Gain: e.marginal(best, c), Iter: 0}
		}
		if err := e.fail(); err != nil {
			return nil, err
		}
		res.Evals += len(active)
		st.h.Heapify(init)
	}
	if err := e.fail(); err != nil {
		return nil, err
	}
	res.Gains = make([]float64, 0, min(s.K-len(selected), len(active)))
	return st, nil
}

// lazyStep performs one round of the lazy greedy loop: pop the top,
// either refresh it if stale or select it if fresh. The steady state
// allocates nothing — every buffer it touches lives in st.
//
//geolint:hotpath
func (s *Selector) lazyStep(e *evaluator, res *Result, st *runState) error {
	t, _ := st.h.Pop()
	if t.Iter != st.iter {
		// Lazy re-evaluation: refresh the stale top and push it back;
		// everything below it is bounded above by its old gain.
		gain := st.res.marginal(t.ID)
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
		st.h.Push(lazyheap.Tuple{ID: t.ID, Gain: gain, Iter: st.iter})
		return nil
	}
	// t is up to date and maximal: select it.
	st.selected = append(st.selected, t.ID)
	res.Gains = append(res.Gains, t.Gain)
	e.absorb(st.best, t.ID)
	if err := e.fail(); err != nil {
		return err
	}
	s.removeConflicts(st, t.ID)
	st.iter++
	res.Rounds++
	return nil
}

// runNaive recomputes every remaining candidate's marginal gain each
// iteration — the strawman the lazy-forward strategy improves on. The
// winner is the smallest-id candidate among the maximal gains, matching
// the lazy path's tie-breaking.
func (s *Selector) runNaive(e *evaluator, res *Result, best []float64, selected, active []int) error {
	alive := append([]int(nil), active...)
	r := newResidual(e, best, s.residualPairs)
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

// conflictGrid builds the grid index over the active candidates, or
// returns nil when grids are disabled or pointless (theta == 0).
func (s *Selector) conflictGrid(active []int) (*grid.Grid, error) {
	if s.DisableGrid || s.Theta <= 0 || len(active) == 0 {
		return nil, nil
	}
	bounds := geoBounds(s.Objects, active)
	g, err := grid.New(bounds, s.Theta)
	if err != nil {
		return nil, fmt.Errorf("core: building conflict grid: %w", err)
	}
	for _, c := range active {
		g.Insert(c, s.Objects[c].Loc)
	}
	return g, nil
}

// removeConflicts drops from the heap every candidate within Theta of
// the just-selected object (Algorithm 1 lines 11–12), including the
// object itself. Each id is removed from the heap and the grid exactly
// once: on the grid path the picked object sits at distance 0 < Theta
// and is collected with its conflicts, so no separate removal runs. The
// grid query fills st.doomed (reused across iterations) via the
// closure-free AppendWithin, keeping the steady state allocation-free.
func (s *Selector) removeConflicts(st *runState, picked int) {
	loc := s.Objects[picked].Loc
	if st.cg == nil {
		// Gridless: with Theta <= 0 the visibility constraint is
		// vacuous and only the pick itself leaves the pool; otherwise
		// (grids disabled) scan the candidates linearly.
		if s.Theta > 0 {
			for _, c := range st.active {
				if c != picked && st.h.Contains(c) && s.Objects[c].Loc.Dist(loc) < s.Theta {
					st.h.Remove(c)
				}
			}
		}
		st.h.Remove(picked)
		return
	}
	// AppendWithin is inclusive (dist <= Theta); the visibility
	// constraint is strict, so re-filter in place.
	st.doomed = st.cg.AppendWithin(st.doomed[:0], loc, s.Theta)
	doomed := st.doomed[:0]
	sawPicked := false
	for _, id := range st.doomed {
		if s.Objects[id].Loc.Dist(loc) < s.Theta {
			doomed = append(doomed, id)
			if id == picked {
				sawPicked = true
			}
		}
	}
	if !sawPicked {
		// Defensive: the pick must leave the pool even if a Theta edge
		// case excluded it from its own conflict neighborhood.
		doomed = append(doomed, picked)
	}
	for _, id := range doomed {
		st.cg.Remove(id, s.Objects[id].Loc)
		st.h.Remove(id)
	}
	st.doomed = doomed
}
