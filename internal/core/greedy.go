package core

import (
	"context"
	"fmt"

	"geosel/internal/engine"
	"geosel/internal/geodata"
	"geosel/internal/grid"
	"geosel/internal/invariant"
	"geosel/internal/lazyheap"
	"geosel/internal/parallel"
)

// Selector configures one run of the greedy selection algorithm. The
// shared knobs — K, Theta, Metric, Agg, MinGain, Parallelism and the
// Disable* ablation switches — live in the embedded
// engine.Config (see that package for per-field semantics); the fields
// declared here are the per-run inputs. The zero value is not runnable;
// populate at least Objects and Config{K, Theta, Metric}. A Selector is
// single-use: build a new one per query (a second Run returns an
// error).
type Selector struct {
	// Config carries the unified engine knobs. Layers above forward
	// their embedded config here wholesale, with Theta resolved to an
	// absolute distance; core ignores the session/serving fields
	// (ThetaFrac, MaxZoomOutScale, AsyncPrefetch, RequestTimeout,
	// SessionTTL, MaxSessions).
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

	// forceStripes overrides the lazy heap's stripe count (normally
	// derived from the worker count). Test-only: the pop order is
	// stripe-count-invariant, and the equivalence suite proves it by
	// forcing mismatched counts.
	forceStripes int
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
	// candidate's first costs one metric call per object in O; on a
	// max-aggregation run its later ones walk the candidate's recorded
	// residual support instead and call the metric not at all, but each
	// still counts as one. Lazy forward keeps Evals far below |G|·K;
	// exact heap initialization adds |G| of them, seeding the heap with
	// bounds (InitialGains, or the metric's own linear row sums) none.
	// With Parallelism > 1 the batched re-evaluation of stale heap tops
	// may refresh a few extra candidates per round, so Evals can exceed
	// the serial count even though the selection is identical.
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
// ctx cancels the run cooperatively: the context is checked at every
// evaluation-chunk boundary, so a cancelled run stops within one chunk
// of work per worker and returns ctx.Err(). A nil ctx never cancels.
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

	// One pool per run, reused by every absorb/marginal pass across all
	// greedy iterations; tiny instances skip the pool entirely.
	var pool *parallel.Pool
	if n >= serialCutoff && s.Parallelism != 1 {
		pool = parallel.New(s.Parallelism)
		defer pool.Close()
	}
	e := newEvaluator(ctx, s.Objects, s.Metric, s.Agg, pool)

	// best[i] = current Sim(o_i, S): the aggregation state per object.
	// For AggSum/AggAvg it accumulates the sum of similarities.
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
	sc := e.score(best, len(selected))
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

// maxStripes bounds the lazy heap's stripe count: every Pop scans one
// top per stripe, so stripes beyond the worker count only add scan cost.
const maxStripes = 64

// runState is the arena of one lazy greedy run: the striped heap, the
// conflict grid, and every scratch buffer the steady-state iteration
// touches. All buffers are sized once; after the first few iterations a
// lazyStep performs zero heap allocations (guarded by
// TestGreedySteadyStateAllocs).
type runState struct {
	h        *lazyheap.Striped
	cg       *grid.Grid
	active   []int
	selected []int
	best     []float64
	// res evaluates gains against best, through the run's
	// residual-support lists where it keeps them.
	res      *residual
	iter     int
	maxBatch int
	// batch/ids/gains are the lazy re-evaluation scratch; doomed is the
	// conflict-removal scratch.
	batch  []lazyheap.Tuple
	ids    []int
	gains  []float64
	doomed []int
	// runFn adapts the evaluator's pool to the heap's Runner for
	// sharded pushes, bound once per run.
	runFn lazyheap.Runner
}

// newRunState builds the arena: the spatially-striped heap (one stripe
// per worker, stripes = horizontal bands over the candidates' Y extent,
// matching the grid partitioning a distributed frontier would use), the
// conflict grid, and the reusable scratch buffers.
func (s *Selector) newRunState(e *evaluator, best []float64, selected, active []int) (*runState, error) {
	cg, err := s.conflictGrid(active)
	if err != nil {
		return nil, err
	}
	nStripes := 1
	if w := e.pool.Workers(); w > 1 {
		nStripes = w
		if nStripes > maxStripes {
			nStripes = maxStripes
		}
	}
	if s.forceStripes > 0 {
		nStripes = s.forceStripes
	}
	stripeOf := func(int) int { return 0 }
	if nStripes > 1 && len(active) > 0 {
		b := geoBounds(s.Objects, active)
		if h := b.Height(); h > 0 {
			objs, minY, scale, n := s.Objects, b.Min.Y, float64(nStripes)/b.Height(), nStripes
			stripeOf = func(id int) int {
				k := int((objs[id].Loc.Y - minY) * scale)
				if k < 0 {
					return 0
				}
				if k >= n {
					return n - 1
				}
				return k
			}
		}
	}
	maxBatch := e.pool.Workers()
	st := &runState{
		h:        lazyheap.NewStriped(len(s.Objects), nStripes, stripeOf),
		cg:       cg,
		active:   active,
		selected: selected,
		best:     best,
		res:      newResidual(e, best, maxBatch, s.residualPairs),
		maxBatch: maxBatch,
		batch:    make([]lazyheap.Tuple, 0, maxBatch),
		ids:      make([]int, 0, maxBatch),
		gains:    make([]float64, 0, maxBatch),
		runFn:    func(n int, fn func(int)) { e.run(n, fn) },
	}
	return st, nil
}

// runLazy is Algorithm 1: heap of ⟨o, Δ(o), Iter⟩ tuples, re-evaluating
// only stale tops, with grid-accelerated conflict removal. Stale tops
// are refreshed in batches of up to one per pool worker, which
// parallelizes the re-evaluation while provably preserving the serial
// pick order: refreshed gains are exact, stale gains are upper bounds
// (submodularity), so the first fresh tuple to surface is the true
// argmax under the heap's deterministic (gain, id) ordering no matter
// how many extra tuples were refreshed along the way. The heap itself
// is striped (one spatial stripe per worker) with heap construction and
// batched re-insertion sharded stripe-by-stripe across the pool; the
// pop order — and therefore the selection — is bitwise-identical for
// every stripe count.
func (s *Selector) runLazy(e *evaluator, res *Result, best []float64, selected, active []int, bounds []float64) error {
	st, err := s.startLazy(e, res, best, selected, active, bounds)
	if err != nil {
		return err
	}
	for len(st.selected) < s.K && st.h.Len() > 0 {
		done, err := s.lazyStep(e, res, st)
		if err != nil {
			return err
		}
		if done {
			break
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
		st.h.Heapify(init, st.runFn)
	} else if len(active) > 0 {
		// Exact O(|O|·|G|) heap initialization, Algorithm 1 as published
		// — the bottleneck on a metric without row sums — evaluated one
		// candidate per worker task, then bulk-loaded per stripe in O(n).
		// It runs on the bare evaluator and records no residual support:
		// a task per candidate has no slot to capture into, and against
		// the forced set alone a support is most of what the candidate
		// resembles — too long to keep.
		gains := e.marginalBatch(nil, best, active)
		if err := e.fail(); err != nil {
			return nil, err
		}
		res.Evals += len(active)
		init := make([]lazyheap.Tuple, len(active))
		for i, c := range active {
			init[i] = lazyheap.Tuple{ID: c, Gain: gains[i], Iter: 0}
		}
		st.h.Heapify(init, st.runFn)
	}
	if err := e.fail(); err != nil {
		return nil, err
	}
	res.Gains = make([]float64, 0, min(s.K-len(selected), len(active)))
	return st, nil
}

// lazyStep performs one round of the lazy greedy loop: pop the top,
// either refresh a batch of stale tuples or select the fresh winner.
// It reports done = true when the MinGain cutoff fires. The steady
// state allocates nothing — every buffer it touches lives in st.
//
//geolint:hotpath
func (s *Selector) lazyStep(e *evaluator, res *Result, st *runState) (bool, error) {
	t, _ := st.h.Pop()
	if t.Iter != st.iter {
		// Batched lazy re-evaluation: refresh up to maxBatch stale
		// tuples from the top of the heap concurrently. Collection
		// stops at the first fresh tuple — everything below it is
		// bounded above by its gain and cannot win this round.
		st.batch = append(st.batch[:0], t)
		for len(st.batch) < st.maxBatch {
			u, ok := st.h.Peek()
			if !ok || u.Iter == st.iter {
				break
			}
			st.h.Pop()
			st.batch = append(st.batch, u)
		}
		st.ids = st.ids[:0]
		for _, u := range st.batch {
			st.ids = append(st.ids, u.ID)
		}
		st.gains = st.res.marginalBatch(st.gains, st.ids)
		if err := e.fail(); err != nil {
			return false, err
		}
		res.Evals += len(st.batch)
		if invariant.Enabled {
			// Lemma 4.1 (submodularity) for stale heap entries, and
			// Lemmas 5.1–5.3 for prefetched bounds (Iter -1): the
			// recorded gain must upper-bound the fresh exact gain.
			for k := range st.batch {
				invariant.UpperBound(st.gains[k], st.batch[k].Gain,
					"core: lazy re-evaluation of candidate gain")
			}
		}
		for k := range st.batch {
			st.batch[k] = lazyheap.Tuple{ID: st.batch[k].ID, Gain: st.gains[k], Iter: st.iter}
		}
		st.h.PushBatch(st.batch, st.runFn)
		if err := e.fail(); err != nil {
			return false, err
		}
		return false, nil
	}
	if s.MinGain > 0 && t.Gain < s.MinGain {
		return true, nil // submodularity: no remaining candidate can reach MinGain
	}
	// t is up to date and maximal: select it.
	st.selected = append(st.selected, t.ID)
	res.Gains = append(res.Gains, t.Gain)
	e.absorb(st.best, t.ID)
	if err := e.fail(); err != nil {
		return false, err
	}
	s.removeConflicts(st, t.ID)
	st.iter++
	res.Rounds++
	return false, nil
}

// runNaive recomputes every remaining candidate's marginal gain each
// iteration — the strawman the lazy-forward strategy improves on. The
// per-iteration sweep is batched across the pool; the winner is the
// smallest-id candidate among the maximal gains, matching the lazy
// path's tie-breaking.
func (s *Selector) runNaive(e *evaluator, res *Result, best []float64, selected, active []int) error {
	alive := append([]int(nil), active...)
	r := newResidual(e, best, e.pool.Workers(), s.residualPairs)
	var gains []float64
	for len(selected) < s.K && len(alive) > 0 {
		gains = r.marginalBatch(gains, alive)
		if err := e.fail(); err != nil {
			return err
		}
		res.Evals += len(alive)
		bestC, bestGain := -1, -1.0
		for k, c := range alive {
			if gains[k] > bestGain || (gains[k] == bestGain && c < bestC) {
				bestC, bestGain = c, gains[k]
			}
		}
		if s.MinGain > 0 && bestGain < s.MinGain {
			break
		}
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
