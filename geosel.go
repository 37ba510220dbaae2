// Package geosel is a library for selecting small, representative,
// mutually visible subsets of large geospatial datasets for map display,
// and for keeping those selections consistent while a user zooms and
// pans — an implementation of Guo, Feng, Cong and Bao, "Efficient
// Selection of Geospatial Data on Maps for Interactive and Visualized
// Exploration" (SIGMOD 2018).
//
// The package is a facade over the implementation packages. The typical
// flow:
//
//	col := geosel.NewCollection()
//	col.Add(id, geosel.Pt(x, y), weight, "text ...")
//	store, _ := geosel.NewStore(col)
//
//	// One-shot selection for a map region (the sos problem):
//	res, _ := geosel.Select(ctx, store, region, geosel.Options{
//		Config: geosel.EngineConfig{K: 100, ThetaFrac: 0.003, Metric: geosel.Cosine()},
//	})
//
//	// Interactive exploration (the isos problem):
//	sess, _ := geosel.NewSession(store, geosel.SessionConfig{
//		Config: geosel.EngineConfig{K: 100, ThetaFrac: 0.003, Metric: geosel.Cosine()},
//	})
//	sess.Start(ctx, region)
//	sess.Prefetch(ctx)            // while the user inspects the view
//	sess.ZoomIn(ctx, subRegion)   // consistency-aware, prefetch-accelerated
//
// All engine knobs (K, θ, metric, zoom-out prefetch envelope, serving
// limits) live in one EngineConfig struct, embedded
// by Options and SessionConfig and validated in one place. Every entry
// point takes a context.Context: cancel it (or let a deadline expire)
// and the selection stops cooperatively within one row, returning
// ctx.Err().
package geosel

import (
	"context"
	"fmt"

	"geosel/internal/core"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/isos"
	"geosel/internal/livestore"
	"geosel/internal/sampling"
	"geosel/internal/sim"
)

// Geometric types.
type (
	// Point is a location in the normalized world plane.
	Point = geo.Point
	// Rect is an axis-aligned rectangle (a map region).
	Rect = geo.Rect
	// Viewport is a displayed region with its zoom level, log2 of the
	// unit square's side over the region's Side(): a function of the
	// region alone, whatever navigation led to it.
	Viewport = geo.Viewport
	// LonLat is a geodetic coordinate; project with Mercator.
	LonLat = geo.LonLat
)

// Data model.
type (
	// Object is one geospatial record ⟨location, weight, attributes⟩.
	Object = geodata.Object
	// Collection is an ordered set of objects sharing a vocabulary.
	Collection = geodata.Collection
	// Store indexes a collection for region queries.
	Store = geodata.Store
	// View is a pinned, immutable read view of a dataset — a static
	// Store, or one epoch of a LiveStore.
	View = geodata.View
	// Source yields the current View and its version; both Store and
	// LiveStore implement it, so sessions work over either.
	Source = geodata.Source
)

// Live ingestion (see internal/livestore): a LiveStore accepts batched
// mutations and publishes an immutable snapshot per committed batch.
type (
	// LiveStore is a mutable, versioned object store with copy-on-write
	// snapshots; build one with NewLiveStore.
	LiveStore = livestore.Store
	// Mutation is one insert/update/delete keyed by Object.ID.
	Mutation = livestore.Mutation
	// MutationOutcome reports what a committed batch did.
	MutationOutcome = livestore.Outcome
	// LiveStoreStats is a point-in-time summary of a LiveStore.
	LiveStoreStats = livestore.Stats
)

// Mutation kinds.
const (
	OpInsert = livestore.OpInsert
	OpUpdate = livestore.OpUpdate
	OpDelete = livestore.OpDelete
)

// Metric scores the similarity of two objects in [0, 1].
type Metric = sim.Metric

// EngineConfig is the unified configuration of the selection engine:
// selection shape (K, Theta/ThetaFrac, Metric), ablation switches
// (DisableLazy/DisableGrid), interactive-session tuning
// (MaxZoomOutScale) and serving limits (RequestTimeout,
// SessionTTL, MaxSessions). Every selection runs on one core, the
// caller's goroutine. See engine.Config for per-field documentation.
type EngineConfig = engine.Config

// SessionConfig configures an interactive session; see isos.Config.
type SessionConfig = isos.Config

// Session is an interactive, consistency-aware exploration.
type Session = isos.Session

// Selection is the result of one interactive selection round.
type Selection = isos.Selection

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// RectAround returns the square of half-side half centered at c.
func RectAround(c Point, half float64) Rect { return geo.RectAround(c, half) }

// Mercator projects longitude/latitude onto the unit square.
func Mercator(ll LonLat) Point { return geo.Mercator(ll) }

// NewCollection returns an empty collection.
func NewCollection() *Collection { return geodata.NewCollection() }

// NewStore indexes a collection for region queries.
func NewStore(col *Collection) (*Store, error) { return geodata.NewStore(col) }

// Cosine returns the keyword-vector cosine similarity metric.
func Cosine() Metric { return sim.Cosine{} }

// EuclideanProximity returns the spatial metric 1 - dist/maxDist.
func EuclideanProximity(maxDist float64) Metric {
	return sim.EuclideanProximity{MaxDist: maxDist}
}

// Hybrid mixes Cosine and EuclideanProximity with weight alpha on the
// textual part.
func Hybrid(alpha, maxDist float64) (Metric, error) { return sim.NewHybrid(alpha, maxDist) }

// MetricFunc adapts a function to the Metric interface.
func MetricFunc(f func(a, b *Object) float64) Metric { return sim.Func(f) }

// Options parameterizes a one-shot Select: the embedded EngineConfig
// carries the selection shape and execution knobs (K, Theta/ThetaFrac,
// Metric, ...); the remaining fields are Select-specific.
//
// In Select, ThetaFrac is interpreted against the longest side of the
// queried region, and Theta overrides it when positive.
type Options struct {
	engine.Config
	// Sample, when true, runs the SaSS sampling extension with the
	// given Eps/Delta (defaults 0.05/0.1), which is the practical
	// choice for very dense regions. The sample is deterministic: the
	// same region's objects sample alike on every call and every store.
	Sample     bool
	Eps, Delta float64
	// Filter optionally restricts selection (and scoring) to objects
	// satisfying the predicate — e.g. only objects mentioning a
	// keyword. Nil admits all.
	Filter func(*Object) bool
}

// Result is the outcome of a one-shot selection.
type Result struct {
	// Positions are indices into the store's collection, in selection
	// order.
	Positions []int
	// Score is the normalized representative score over the region's
	// objects (Equation 2 of the paper).
	Score float64
	// RegionObjects is the number of objects in the queried region.
	RegionObjects int
	// SampleSize is the number of objects the greedy actually saw
	// (equals RegionObjects unless Options.Sample was set).
	SampleSize int
}

// Select solves the sos problem for the store's objects inside region:
// pick opts.K objects, every pair at distance >= θ, maximizing the
// representative score. It is the 1/8-approximation greedy of the
// paper, optionally on a theoretically grounded sample (SaSS).
//
// ctx cancels the selection cooperatively (within one row); a nil ctx
// behaves like context.Background().
func Select(ctx context.Context, store *Store, region Rect, opts Options) (*Result, error) {
	if store == nil {
		return nil, fmt.Errorf("geosel: nil store")
	}
	if opts.Metric == nil {
		return nil, fmt.Errorf("geosel: Options.Metric is required")
	}
	regionPos := store.Region(region)
	if opts.Filter != nil {
		all := store.Collection().Objects
		kept := regionPos[:0]
		for _, p := range regionPos {
			if opts.Filter(&all[p]) {
				kept = append(kept, p)
			}
		}
		regionPos = kept
	}
	cfg := opts.Config
	if cfg.Theta <= 0 {
		cfg.Theta = cfg.ThetaFrac * region.Side()
	}
	cfg.ThetaFrac = 0 // resolved into Theta above
	out := &Result{RegionObjects: len(regionPos), SampleSize: len(regionPos)}

	if opts.Sample {
		eps, delta := opts.Eps, opts.Delta
		if eps == 0 {
			eps = 0.05
		}
		if delta == 0 {
			delta = 0.1
		}
		objs := store.Collection().Subset(regionPos)
		sres, err := sampling.Run(ctx, objs, sampling.Config{
			Config: cfg, Eps: eps, Delta: delta,
		})
		if err != nil {
			return nil, err
		}
		out.SampleSize = sres.SampleSize
		for _, s := range sres.Selected {
			out.Positions = append(out.Positions, regionPos[s])
		}
		out.Score = core.Score(objs, sres.Selected, opts.Metric, core.AggMax)
		return out, nil
	}

	res, err := core.SelectRegion(ctx, cfg, store.Collection(), regionPos, cfg.K, cfg.Theta, nil, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	out.Positions, out.Score = res.Positions, res.Score
	return out, nil
}

// Score computes the representative score of an arbitrary selection
// (positions into objs) under the max aggregation.
func Score(objs []Object, selected []int, m Metric) float64 {
	return core.Score(objs, selected, m, core.AggMax)
}

// Representatives maps every object to the selected object representing
// it best (-1 with an empty selection) — the index behind "click a pin
// to see the similar hidden objects" exploration.
func Representatives(objs []Object, selected []int, m Metric) []int {
	return core.Representatives(objs, selected, m)
}

// SatisfiesVisibility reports whether every selected pair is at least
// theta apart.
func SatisfiesVisibility(objs []Object, selected []int, theta float64) bool {
	return core.SatisfiesVisibility(objs, selected, theta)
}

// NewSession starts an interactive, consistency-aware exploration of
// the source's dataset. Pass a *Store for a static dataset or a
// *LiveStore for one ingesting concurrently; in the live case every
// navigation pins the then-current snapshot, so each selection sees one
// consistent version.
func NewSession(src Source, cfg SessionConfig) (*Session, error) {
	return isos.NewSession(src, cfg)
}

// NewLiveStore builds a mutable, versioned store seeded with the
// collection's objects. The store reads them in place, so the caller
// must not modify them afterwards (the vocabulary becomes
// writer-owned).
// Its regions come back in ascending position order, as NewStore's do,
// so with no mutations applied the two select bit for bit alike. Its
// memory follows the live objects (see LiveStore.Stats).
func NewLiveStore(col *Collection) (*LiveStore, error) {
	return livestore.New(col, EngineConfig{})
}
