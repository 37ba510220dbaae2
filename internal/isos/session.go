package isos

import (
	"context"
	"fmt"
	"time"

	"geosel/internal/core"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/invariant"
)

// Config parameterizes a Session. The shared engine knobs — K,
// ThetaFrac, Metric, MaxZoomOutScale — live in the embedded
// engine.Config (see that package for per-field semantics) and are
// forwarded wholesale to every selection the session runs; the fields
// declared here are session-specific.
//
// Of particular session relevance in engine.Config:
//
//   - ThetaFrac expresses the visibility threshold θ as a fraction of
//     the viewport side length, so the on-screen separation is constant
//     across zoom levels.
//   - MaxZoomOutScale bounds the zoom-out envelope Prefetch covers.
//
// A session never prefetches on its own: bounds exist only after an
// explicit Prefetch call (engine.Config.AsyncPrefetch is ignored).
type Config struct {
	engine.Config

	// Filter optionally restricts the session to objects satisfying the
	// predicate — the paper's "filtering condition" scenario (e.g. only
	// objects whose text mentions "restaurant"). The representative
	// score is then computed over the filtered objects. Nil admits all.
	Filter func(*geodata.Object) bool

	// Warmer optionally serves navigations from a tile-grain
	// materialized selection cache before falling back to the ordinary
	// greedy run; see the Warmer interface. Ignored when Filter is set
	// (cached tiles are computed without filters). Nil disables warm
	// serving.
	Warmer Warmer
}

// Selection reports one selection round in a session.
type Selection struct {
	// Positions are collection positions of the visible objects, forced
	// objects first.
	Positions []int
	// Score is the normalized representative score over the objects of
	// the current region.
	Score float64
	// RegionObjects is |O|, the number of objects in the region.
	RegionObjects int
	// ForcedCount is |D| and CandidateCount |G| for this round.
	ForcedCount, CandidateCount int
	// Evals counts marginal evaluations inside the greedy run.
	Evals int
	// Elapsed is the wall-clock time of the selection (excluding the
	// region fetch, matching the paper's measurement methodology:
	// "we report the runtime after the object fetching is finished").
	Elapsed time.Duration
	// Prefetched reports whether prefetched upper bounds seeded the
	// heap.
	Prefetched bool
	// Warm reports that the selection was served from the configured
	// Warmer (tile cache) instead of a greedy run; Score is then the
	// cache's gain-mass approximation rather than the exact normalized
	// score.
	Warm bool
}

// Session is an interactive exploration of one dataset. A session
// models a single user's map: its methods must not be called
// concurrently with each other, and it starts no goroutines of its own.
type Session struct {
	src geodata.Source
	cfg Config

	// view is the snapshot pinned by the last navigation entry (repin):
	// every read of the current operation — region fetch, derivation,
	// selection, prefetch — goes through this one consistent view, so a
	// live store ingesting concurrently never shears a navigation.
	// version is the pinned snapshot's version; visibleVersion is the
	// version the current visible set was selected against (they differ
	// exactly when ingestion advanced the store between two operations).
	view           geodata.View
	version        uint64
	visibleVersion uint64

	viewport geo.Viewport
	visible  []int // collection positions currently displayed
	started  bool
	history  []histEntry

	prefetch *prefetchState
}

// NewSession validates the configuration and returns a session over the
// source's dataset. A *geodata.Store is a Source (its own version-0
// view forever), so static-dataset callers pass their store unchanged;
// a *livestore.Store makes the session live — each navigation pins the
// then-current snapshot.
func NewSession(src geodata.Source, cfg Config) (*Session, error) {
	if src == nil {
		return nil, fmt.Errorf("isos: nil source")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("isos: K must be positive, got %d", cfg.K)
	}
	cfg.Config = cfg.Config.WithDefaults()
	view, ver := src.Snapshot()
	return &Session{src: src, cfg: cfg, view: view, version: ver, visibleVersion: ver}, nil
}

// View returns the currently pinned snapshot and its version. The view
// only changes at navigation entry (and Start), so between operations it
// is stable — callers rendering Selection.Positions must resolve them
// against this view, not against a fresh source snapshot, or a
// concurrent ingest could shear the lookup.
func (s *Session) View() (geodata.View, uint64) { return s.view, s.version }

// repin pins the source's current snapshot for the operation starting
// now. When ingestion advanced the version since the last pin, the
// visible set and history are carried into the new version's position
// space through LiveView.LivePos: positions whose objects died
// (deleted, or superseded by an update) are dropped — their objects no
// longer exist, so no consistency constraint can force them onto the
// next view — and survivors are renumbered if a compaction moved them.
// A survivor's slot is copied verbatim, so its location (and thus
// every pairwise θ-separation already established) carries over. A
// session pinned before the store's previous compaction loses its
// whole visible set and history, as if every pinned object had died.
func (s *Session) repin() {
	view, ver := s.src.Snapshot()
	s.view = view
	if ver == s.version {
		return
	}
	pinned := s.version
	s.version = ver
	lv, ok := view.(geodata.LiveView)
	if !ok {
		return
	}
	s.visible = translateLive(s.visible, lv, pinned)
	for i := range s.history {
		s.history[i].visible = translateLive(s.history[i].visible, lv, pinned)
	}
}

// translateLive maps positions pinned at version pinned into lv's
// position space in place, dropping the dead ones.
func translateLive(pos []int, lv geodata.LiveView, pinned uint64) []int {
	out := pos[:0]
	for _, p := range pos {
		if q, ok := lv.LivePos(p, pinned); ok {
			out = append(out, q)
		}
	}
	return out
}

// Close does nothing: a session holds no goroutines or other resources
// to release.
//
// Deprecated: sessions need no closing; drop the call.
func (s *Session) Close() {}

// Viewport returns the current viewport; meaningful after Start.
func (s *Session) Viewport() geo.Viewport { return s.viewport }

// Visible returns the collection positions of the currently displayed
// objects (a copy).
func (s *Session) Visible() []int { return append([]int(nil), s.visible...) }

// theta returns the world-space visibility threshold for a region.
func (s *Session) theta(region geo.Rect) float64 {
	return s.cfg.ThetaFrac * region.Side()
}

// Start begins the session at the given region with an unconstrained
// sos selection. ctx cancels the selection cooperatively; on error the
// session keeps its previous state and stays usable.
func (s *Session) Start(ctx context.Context, region geo.Rect) (*Selection, error) {
	if !region.Valid() || region.Width() <= 0 || region.Height() <= 0 {
		return nil, fmt.Errorf("isos: invalid start region %v", region)
	}
	s.repin()
	prevVP := s.viewport
	s.viewport = geo.NewViewport(region)
	sel, err := s.selectIn(ctx, region, nil, Derivation{G: nil}, true, nil)
	if err != nil {
		s.viewport = prevVP
		return nil, err
	}
	s.started = true
	s.prefetch = nil
	s.history = nil
	return sel, nil
}

// ZoomIn navigates to inner (which must lie inside the current region)
// and selects objects for it under the zooming consistency constraint.
// ctx cancels the selection cooperatively; on error the session keeps
// its previous state and stays usable.
func (s *Session) ZoomIn(ctx context.Context, inner geo.Rect) (*Selection, error) {
	return s.navigate(ctx, geo.OpZoomIn, func(v geo.Viewport) (geo.Viewport, error) { return v.ZoomIn(inner) })
}

// ZoomOut navigates to outer (which must contain the current region).
// ctx cancels the selection cooperatively; on error the session keeps
// its previous state and stays usable.
func (s *Session) ZoomOut(ctx context.Context, outer geo.Rect) (*Selection, error) {
	return s.navigate(ctx, geo.OpZoomOut, func(v geo.Viewport) (geo.Viewport, error) { return v.ZoomOut(outer) })
}

// Pan moves the viewport by delta (the new region must overlap the
// old). ctx cancels the selection cooperatively; on error the session
// keeps its previous state and stays usable.
func (s *Session) Pan(ctx context.Context, delta geo.Point) (*Selection, error) {
	return s.navigate(ctx, geo.OpPan, func(v geo.Viewport) (geo.Viewport, error) { return v.Pan(delta) })
}

// navigate is one navigation step: move computes the new viewport from
// the current one, then the step pins the current snapshot, fetches
// the new region's objects once, derives (D, G) for op from them, looks
// up prefetched bounds and runs the constrained selection over the same
// positions. On success the old state goes on the history.
func (s *Session) navigate(ctx context.Context, op geo.Op, move func(geo.Viewport) (geo.Viewport, error)) (*Selection, error) {
	if err := s.requireStarted(); err != nil {
		return nil, err
	}
	old := s.viewport.Region
	nv, err := move(s.viewport)
	if err != nil {
		return nil, err
	}
	s.repin()
	sameVersion := s.visibleVersion == s.version
	region := nv.Region
	objs := s.regionObjects(region)
	var d Derivation
	switch op {
	case geo.OpZoomIn:
		d = DeriveZoomIn(s.visible, objs, region, s.locate)
	case geo.OpZoomOut:
		d = DeriveZoomOut(s.visible, objs, old, s.locate)
	default:
		d = DerivePan(s.visible, objs, old, s.locate)
	}
	bounds := s.prefetchBounds(op, region, d.G)
	prev := histEntry{viewport: s.viewport, visible: append([]int(nil), s.visible...)}
	sel, err := s.selectIn(ctx, region, objs, d, false, bounds)
	if err != nil {
		return nil, err
	}
	if invariant.Enabled && sameVersion {
		s.assertTransition(op, old, region, prev.visible)
	}
	s.history = append(s.history, prev)
	s.trimHistory()
	s.viewport = nv
	s.prefetch = nil
	return sel, nil
}

// assertTransition checks, under the geoselcheck tag, that the
// selection just installed by selectIn honors the Section 3.4 zooming
// and panning consistency constraints relative to the pre-operation
// state. The derivation (derive.go) is constructed to guarantee this;
// the assertion re-verifies it through the independent CheckTransition
// validator.
func (s *Session) assertTransition(op geo.Op, oldRegion, newRegion geo.Rect, oldVisible []int) {
	err := CheckTransition(op, oldRegion, newRegion, oldVisible, s.visible, s.locate)
	invariant.Assertf(err == nil, "isos: %v", err)
}

func (s *Session) requireStarted() error {
	if !s.started {
		return fmt.Errorf("isos: session not started; call Start first")
	}
	return nil
}

// locate returns the location of a collection position in the pinned
// view. repin carries recorded positions into that view's position
// space, so they resolve to the same locations they had when recorded.
func (s *Session) locate(pos int) geo.Point {
	return s.view.Collection().Objects[pos].Loc
}

// regionObjects returns the positions of the session-relevant objects
// in region, applying the configured filter.
func (s *Session) regionObjects(region geo.Rect) []int {
	pos := s.view.Region(region)
	if s.cfg.Filter == nil {
		return pos
	}
	objs := s.view.Collection().Objects
	out := pos[:0]
	for _, p := range pos {
		if s.cfg.Filter(&objs[p]) {
			out = append(out, p)
		}
	}
	return out
}

// selectIn runs the constrained greedy for region. pos holds the
// region's objects as regionObjects returns them; nil fetches them
// here, and only when the warm path declines. When unconstrained is
// true, all region objects are candidates (the plain sos problem).
// bounds, if non-nil, holds the prefetched upper bounds of G, aligned
// with d.G. The session's visible set is updated only on success.
func (s *Session) selectIn(ctx context.Context, region geo.Rect, pos []int, d Derivation, unconstrained bool, bounds []float64) (*Selection, error) {
	if sel, ok := s.tryWarm(ctx, region, d, unconstrained); ok {
		return sel, nil
	}
	if pos == nil {
		pos = s.regionObjects(region)
	}
	var forced, cands []int
	if !unconstrained {
		forced, cands = d.D, d.G
		if cands == nil {
			cands = []int{} // an empty G is still the whole candidate set
		}
	}
	// Forward the whole engine config; θ is resolved from the
	// viewport-relative ThetaFrac to an absolute distance.
	start := time.Now()
	res, err := core.SelectRegion(ctx, s.cfg.Config, s.view.Collection(), pos,
		s.cfg.K, s.theta(region), forced, cands, bounds, nil)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	s.visible = append([]int(nil), res.Positions...)
	s.visibleVersion = s.version
	return &Selection{
		Positions:      res.Positions,
		Score:          res.Score,
		RegionObjects:  res.RegionObjects,
		ForcedCount:    res.ForcedCount,
		CandidateCount: res.CandidateCount,
		Evals:          res.Evals,
		Elapsed:        elapsed,
		Prefetched:     bounds != nil,
	}, nil
}

// tryWarm offers the navigation to the configured Warmer. ok = false
// (no warmer, a filter in play, or the warmer declining) sends the
// caller down the ordinary greedy path. On success the warm selection
// is installed exactly as selectIn would install its own: the Warmer
// contract guarantees it honors the same consistency constraints, and
// assertTransition re-verifies that under the geoselcheck tag.
func (s *Session) tryWarm(ctx context.Context, region geo.Rect, d Derivation, unconstrained bool) (*Selection, bool) {
	w := s.cfg.Warmer
	if w == nil || s.cfg.Filter != nil {
		return nil, false
	}
	var forced, cands []int
	if !unconstrained {
		forced, cands = d.D, d.G
	}
	start := time.Now()
	pos, score, regionObjects, ok := w.WarmNavigate(ctx, s.view, s.version, region, s.cfg.K, s.theta(region), forced, cands)
	if !ok {
		return nil, false
	}
	out := &Selection{
		Positions:      pos,
		Score:          score,
		RegionObjects:  regionObjects,
		ForcedCount:    len(forced),
		CandidateCount: len(cands),
		Elapsed:        time.Since(start),
		Warm:           true,
	}
	if unconstrained {
		out.CandidateCount = regionObjects
	}
	s.visible = append([]int(nil), pos...)
	s.visibleVersion = s.version
	return out, true
}
