// Package prefetch implements the pre-fetching strategy of Section 5:
// while the user is still inspecting the current viewport, precompute an
// upper bound on the marginal representative-score increase of every
// object that could participate in the next navigation operation
// (Lemmas 5.1, 5.2 and 5.3 for zoom-in, zoom-out and panning). The
// bounds seed the greedy algorithm's heap in O(1) per object, removing
// the O(|O|·|G|) exact initialization — the source of the paper's ~2
// orders of magnitude speedup (Figure 13) on a metric that pays it.
// Cosine, the metric the server runs, does not: its row sums are linear
// (sim.Linear, DESIGN.md §5d), so a cold run bounds its own heap as
// tightly as any envelope can. There a pass is one sweep over the
// envelope's vectors into the aggregate A, and a bound is computed only
// when a navigation asks for it, for the candidates it names.
//
// All bounds are on the *unnormalized* marginal gain Σ ω(o')·Sim(o, o')
// used inside core.Selector, so they can be passed directly as
// Selector.InitialGains.
//
// On every other metric the bound computations are O(|envelope|²), one
// envelope row at a time on the calling goroutine, stored one per
// envelope position. Every function takes a context: prefetch passes
// are exactly the work a session abandons when the user navigates
// mid-computation, so cancellation is checked before every bound row
// and a cancelled pass returns ctx.Err() with its partial output
// discarded (a linear pass has no rows to stop between).
package prefetch

import (
	"context"
	"slices"

	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/invariant"
	"geosel/internal/sim"
	"geosel/internal/textsim"
)

// Bounds holds what one bound pass computed over an envelope: an upper
// bound for each of the envelope's collection positions. On a metric
// with linear row sums it keeps only the envelope aggregate and
// computes a position's bound when asked (O(nnz) per position);
// otherwise it keeps one sum per position. A Bounds is read-only once
// returned and valid only against the view it was computed from.
type Bounds struct {
	pos  []int // the envelope's positions, ascending
	objs []geodata.Object
	lin  *sim.Linear
	sums []float64 // aligned with pos when lin is nil
}

// Of returns the bound of collection position p; ok is false when p is
// not in the envelope or its bound declines (sim.Linear.Bound).
func (b *Bounds) Of(p int) (v float64, ok bool) {
	i, found := slices.BinarySearch(b.pos, p)
	if !found {
		return 0, false
	}
	if b.lin != nil {
		return b.lin.Bound(&b.objs[p])
	}
	return b.sums[i], true
}

// For writes the bound of cands[k] to dst[k] for every k. It reports
// false, with dst unspecified, when some candidate has none: an
// envelope bound of an object outside the envelope is not a bound.
//
//geolint:hotpath
func (b *Bounds) For(dst []float64, cands []int) bool {
	for k, c := range cands {
		v, ok := b.Of(c)
		if !ok {
			return false
		}
		dst[k] = v
	}
	return true
}

// PairwiseBounds returns, for every position in envelopePos, the sum
// Σ_{o' ∈ envelope} ω(o')·Sim(o, o') — a valid upper bound on o's
// marginal gain in any region whose objects are a subset of the
// envelope. This is Lemma 5.1 with the envelope = current region Op
// (zoom-in) and Lemma 5.2 with the envelope = union of all possible
// zoom-out regions OA. envelopePos is ascending, as View.Region returns
// it; the sums add their terms in that order. Cost: one O(Σ nnz) pass
// on a metric with linear row sums (sim.Linear — Cosine), on the
// calling goroutine; otherwise O(|envelope|²) metric calls, paid while
// the user is idle, a cancelled ctx aborting between rows with
// ctx.Err().
func PairwiseBounds(ctx context.Context, col *geodata.Collection, envelopePos []int, m sim.Metric) (*Bounds, error) {
	return pairwiseBounds(ctx, col, envelopePos, m, false)
}

// pairwiseBounds is PairwiseBounds; with linearOnly set it returns nil
// instead of computing quadratic rows.
func pairwiseBounds(ctx context.Context, col *geodata.Collection, envelopePos []int, m sim.Metric, linearOnly bool) (*Bounds, error) {
	b := &Bounds{pos: envelopePos, objs: col.Objects}
	if b.lin = sim.NewLinear(m, col.Objects, b.pos); b.lin == nil {
		if linearOnly {
			return nil, nil
		}
		// The rows work on a gathered copy of the envelope, so a pass
		// costs O(|envelope|) memory however large the collection is.
		// Index equality in sub is object identity, which is all the
		// built-in metrics need of the pointers m.Sim would see.
		sub := col.Subset(b.pos)
		w, row := make([]float64, len(sub)), make([]float64, len(sub))
		for i := range sub {
			w[i] = sub[i].Weight
		}
		b.sums = make([]float64, len(sub))
		if err := quadraticRows(ctx, w, sim.NewRows(m, sub), row, b.sums); err != nil {
			return nil, err
		}
	}
	if invariant.Enabled {
		b.assertEnvelopeBounds(m, "prefetch: pairwise envelope bound")
	}
	return b, nil
}

// quadraticRows fills sums[i] = Σ_j w[j]·Sim(o_j, o_i) over the objects
// rows was compiled from, one envelope row at a time into row, checking
// ctx after each.
//
//geolint:hotpath
func quadraticRows(ctx context.Context, w []float64, rows *sim.Rows, row, sums []float64) error {
	done := ctx.Done()
	for i := range sums {
		rows.Row(row, i, done)
		if err := ctx.Err(); err != nil {
			return err
		}
		var sum float64
		for k, v := range row {
			sum += w[k] * textsim.Clamp01(v)
		}
		sums[i] = sum
	}
	return nil
}

// assertEnvelopeBounds checks, under the geoselcheck tag, that every
// envelope bound is a plausible Lemma 5.1–5.3 sum: non-negative (the
// metric maps into [0, 1] and weights are non-negative) and at least the
// object's own weighted self-similarity term, which every envelope sum
// contains because the object belongs to its own envelope.
func (b *Bounds) assertEnvelopeBounds(m sim.Metric, what string) {
	for _, p := range b.pos {
		v, ok := b.Of(p)
		if !ok {
			continue // declined: no navigation is seeded from it
		}
		o := &b.objs[p]
		invariant.Assertf(v >= 0, "%s: negative bound %v for position %d", what, v, p)
		invariant.UpperBound(o.Weight*m.Sim(o, o), v, what+" (self term)")
	}
}

// ZoomInBounds precomputes upper bounds for all objects of the current
// region (any zoom-in target is contained in it), per Lemma 5.1. The
// view is any pinned geodata.View — a static store or one livestore
// snapshot; bounds are only valid against the exact view they were
// computed from (the session discards them on a version change).
func ZoomInBounds(ctx context.Context, view geodata.View, region geo.Rect, m sim.Metric) (*Bounds, error) {
	return PairwiseBounds(ctx, view.Collection(), view.Region(region), m)
}

// ZoomOutBounds precomputes upper bounds for all objects of the
// zoom-out envelope (the union of all possible zoom-out regions up to
// maxScale× the current side length), per Lemma 5.2.
func ZoomOutBounds(ctx context.Context, view geodata.View, vp geo.Viewport, maxScale float64, m sim.Metric) (*Bounds, error) {
	env := vp.ZoomOutEnvelope(maxScale)
	return PairwiseBounds(ctx, view.Collection(), view.Region(env), m)
}

// PanBounds precomputes upper bounds for all objects of the panning
// envelope rA (3× the viewport on each axis), per Lemma 5.3: for each
// object o the sum runs only over rA ∩ ro, where ro is the square
// centered at o with twice the old region's width — every possible
// panned region containing o lies inside that intersection: one window
// query per envelope object, ctx checked before each. On a metric with
// linear row sums the bound is the sum over all of rA instead, one
// aggregate for the whole envelope: a superset sum dominates the window
// sum, so it is looser but still a bound, and core tightens it against
// the new region's own row sum anyway.
func PanBounds(ctx context.Context, view geodata.View, vp geo.Viewport, m sim.Metric) (*Bounds, error) {
	env := vp.PanEnvelope()
	envPos := view.Region(env)
	col := view.Collection()
	if b, err := pairwiseBounds(ctx, col, envPos, m, true); b != nil || err != nil {
		return b, err
	}
	objs := col.Objects
	w := vp.Region.Width()
	h := vp.Region.Height()
	b := &Bounds{pos: envPos, objs: objs, sums: make([]float64, len(envPos))}
	for i, p := range envPos {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		o := &objs[p]
		ro := geo.Rect{
			Min: geo.Point{X: o.Loc.X - w, Y: o.Loc.Y - h},
			Max: geo.Point{X: o.Loc.X + w, Y: o.Loc.Y + h},
		}
		window, ok := env.Intersect(ro)
		if !ok {
			continue
		}
		var sum float64
		for _, q := range view.Region(window) {
			sum += objs[q].Weight * m.Sim(o, &objs[q])
		}
		b.sums[i] = sum
	}
	if invariant.Enabled {
		b.assertEnvelopeBounds(m, "prefetch: pan envelope bound")
	}
	return b, nil
}
