package isos

import (
	"context"

	"geosel/internal/geo"
	"geosel/internal/prefetch"
)

// prefetchState caches the per-operation bound data computed by
// Prefetch; it is invalidated after every navigation operation. Once
// installed on the session it is read-only. version records the
// snapshot the bounds were computed against: a Lemma 5.1–5.3 envelope
// sum only dominates in-region gains over the same object set, so
// bounds are discarded — never seeded into the lazy heap — when a
// navigation pins a newer version (see prefetchBounds).
type prefetchState struct {
	version uint64
	ops     map[geo.Op]opBounds
}

// opBounds is one operation's prefetch: the envelope rectangle and the
// bounds over the objects inside it.
type opBounds struct {
	env    geo.Rect
	bounds *prefetch.Bounds
}

func newPrefetchState(version uint64) *prefetchState {
	return &prefetchState{version: version, ops: make(map[geo.Op]opBounds)}
}

// Prefetch synchronously precomputes marginal-gain upper bounds for the
// given navigation operations (all three when none are specified) from
// the current viewport, per Section 5. Call it after a selection while
// the user is inspecting the view; the next matching operation seeds
// the greedy heap from the cached bounds instead of paying the exact
// O(|O|·|G|) initialization — on a metric that pays one: under Cosine
// every selection already bounds its own heap from linear row sums, at
// least as tightly, so prefetching buys nothing there and costs one
// envelope query and one pass over the envelope's vectors per
// operation, plus O(nnz) per candidate in G at the next navigation.
// This is the only way a session gains bounds: it never prefetches on
// its own.
//
// ctx cancels the computation cooperatively; bounds for operations
// completed before the cancellation are kept (they remain valid), the
// interrupted operation's partial rows are discarded.
func (s *Session) Prefetch(ctx context.Context, ops ...geo.Op) error {
	if err := s.requireStarted(); err != nil {
		return err
	}
	if len(ops) == 0 {
		ops = []geo.Op{geo.OpZoomIn, geo.OpZoomOut, geo.OpPan}
	}
	if s.prefetch == nil || s.prefetch.version != s.version {
		s.prefetch = newPrefetchState(s.version)
	}
	vp := s.viewport
	for _, op := range ops {
		var env geo.Rect
		var b *prefetch.Bounds
		var err error
		switch op {
		case geo.OpZoomIn:
			env = vp.Region
			b, err = prefetch.ZoomInBounds(ctx, s.view, vp.Region, s.cfg.Metric)
		case geo.OpZoomOut:
			env = vp.ZoomOutEnvelope(s.cfg.MaxZoomOutScale)
			b, err = prefetch.ZoomOutBounds(ctx, s.view, vp, s.cfg.MaxZoomOutScale, s.cfg.Metric)
		case geo.OpPan:
			env = vp.PanEnvelope()
			b, err = prefetch.PanBounds(ctx, s.view, vp, s.cfg.Metric)
		default:
			continue
		}
		if err != nil {
			return err
		}
		s.prefetch.ops[op] = opBounds{env: env, bounds: b}
	}
	return nil
}

// prefetchBounds returns the prefetched bounds of the candidates g,
// aligned with g, when the prefetched data covers the concrete new
// region, nil otherwise (the selection then falls back to exact
// initialization). Misses happen when nothing was prefetched, the
// bounds were computed against an older snapshot than the one now
// pinned (an insert could add gain terms the stale envelope sum never
// saw, so Lemma 5.1–5.3 domination no longer holds — stale bounds are
// discarded wholesale), the new region escapes the prefetched envelope
// (e.g. a zoom-out beyond MaxZoomOutScale), or a candidate is not one
// of the envelope's objects. The last check is what makes the slack on
// the envelope test safe: a region may stick out of the envelope by
// rounding, and an object in that sliver has no bound — on Cosine its
// envelope sum would lack its own self term.
func (s *Session) prefetchBounds(op geo.Op, region geo.Rect, g []int) []float64 {
	if s.prefetch == nil || s.prefetch.version != s.version {
		return nil
	}
	ob, ok := s.prefetch.ops[op]
	if !ok || !ob.env.ContainsRect(region.Expand(-1e-12)) {
		return nil
	}
	out := make([]float64, len(g))
	if !ob.bounds.For(out, g) {
		return nil
	}
	return out
}
