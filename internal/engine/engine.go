// Package engine defines the single configuration value shared by every
// layer of the selection pipeline. core.Selector, isos.Config,
// sampling.Config, geosel.Options and the HTTP server all embed
// engine.Config, so a knob introduced here is immediately available —
// and forwarded — at every layer; wrappers forward the whole embedded
// value instead of hand-copying fields (the drift the knobplumb
// analyzer polices). Validation of the shared fields lives here, in one
// place.
package engine

import (
	"fmt"
	"time"

	"geosel/internal/sim"
)

// Agg named an aggregation of Sim(o, S). Only the paper's max
// (Equation 1) is implemented.
//
// Deprecated: every selection aggregates by max; nothing reads an Agg.
type Agg int

// AggMax is the max aggregation of Equation 1.
//
// Deprecated: every selection aggregates by max; nothing reads an Agg.
const AggMax Agg = 0

// Defaults applied by WithDefaults for the zero values of the session
// and serving fields.
const (
	// DefaultMaxZoomOutScale is the zoom-out envelope bound used when
	// MaxZoomOutScale is zero (the Table 2 default).
	DefaultMaxZoomOutScale = 2.0
	// DefaultSessionTTL is the idle lifetime of a server session when
	// SessionTTL is zero.
	DefaultSessionTTL = 15 * time.Minute
	// DefaultMaxSessions is the server session-count bound when
	// MaxSessions is zero.
	DefaultMaxSessions = 1024
	// DefaultTileCacheCapacity is the materialized-tile entry bound used
	// when TileCacheCapacity is zero.
	DefaultTileCacheCapacity = 4096
)

// Config is the unified engine configuration. Every layer of the
// pipeline embeds it; each layer reads the fields that apply to it and
// ignores the rest (core ignores ThetaFrac, a one-shot selection
// ignores SessionTTL). The zero value of every field is a safe default.
type Config struct {
	// K is the number of objects to display, |S ∪ D|.
	K int
	// Theta is the absolute visibility threshold θ: any two displayed
	// objects must be at distance >= Theta. Layers that work in region
	// fractions (sessions, geosel.Select) derive it from ThetaFrac and
	// override this field per region.
	Theta float64
	// ThetaFrac expresses θ as a fraction of the region side length,
	// the longer of its width and height (geo.Rect.Side; the paper
	// uses 0.003 of the query region "by length", Table 2), so the
	// on-screen separation is constant across zoom levels. Used by the
	// server, session and facade layers; ignored by core, which
	// consumes the resolved Theta.
	ThetaFrac float64
	// Metric is the similarity function Sim(·,·).
	Metric sim.Metric

	// DisableLazy switches off the lazy-forward strategy and recomputes
	// every candidate's marginal gain in every iteration (the "naive
	// idea" the paper rejects). For ablation benchmarks.
	DisableLazy bool
	// DisableGrid switches off the grid index for visibility-conflict
	// removal and uses a linear scan instead. For ablation benchmarks.
	DisableGrid bool

	// MaxZoomOutScale bounds the zoom-out factor covered by prefetched
	// zoom-out envelopes; zoom-outs beyond it fall back to a cold
	// selection. 0 means DefaultMaxZoomOutScale.
	MaxZoomOutScale float64
	// AsyncPrefetch is ignored: sessions prefetch only through explicit
	// synchronous Prefetch calls.
	//
	// Deprecated: ignored; drop it.
	AsyncPrefetch bool

	// TileCache enables the tile-grain materialized selection cache
	// (internal/tilecache): selections are memoized per XYZ tile and
	// viewports are served by stitching cached tiles plus a seam-repair
	// pass, falling back to a full greedy run when the repair budget is
	// exceeded. Off, every request runs greedy from scratch.
	TileCache bool
	// TileCacheCapacity is the exact number of materialized tile entries
	// the cache holds; the least recently used entry is evicted beyond
	// it. 0 means DefaultTileCacheCapacity.
	TileCacheCapacity int

	// RequestTimeout, when positive, bounds the wall-clock time the
	// server spends on one selection request; the request's context is
	// cancelled at the deadline and the selection stops within one row.
	// 0 means no deadline beyond the client's own.
	RequestTimeout time.Duration
	// SessionTTL is the idle lifetime of a server session: sessions
	// untouched for longer are evicted and subsequent requests for them
	// return 404. 0 means DefaultSessionTTL; negative disables TTL
	// eviction.
	SessionTTL time.Duration
	// MaxSessions bounds the number of live server sessions; creating a
	// session beyond it evicts the idlest one. 0 means
	// DefaultMaxSessions.
	MaxSessions int
}

// Validate checks the ranges shared by every layer. Layer-specific
// requirements (a session needs K > 0, a selector needs in-range
// candidate indices) stay with their layers.
func (c Config) Validate() error {
	if c.K < 0 {
		return fmt.Errorf("engine: K = %d must be non-negative", c.K)
	}
	// Written !(x >= 0) so that NaN, which compares false to
	// everything, is rejected too; +Inf is a valid (everything-conflicts)
	// threshold.
	if !(c.Theta >= 0) {
		return fmt.Errorf("engine: Theta = %v must be non-negative", c.Theta)
	}
	if !(c.ThetaFrac >= 0) {
		return fmt.Errorf("engine: ThetaFrac = %v must be non-negative", c.ThetaFrac)
	}
	if c.Metric == nil {
		return fmt.Errorf("engine: Metric must not be nil")
	}
	if c.MaxZoomOutScale != 0 && c.MaxZoomOutScale < 1 {
		return fmt.Errorf("engine: MaxZoomOutScale must be >= 1, got %v", c.MaxZoomOutScale)
	}
	if c.RequestTimeout < 0 {
		return fmt.Errorf("engine: RequestTimeout = %v must be non-negative", c.RequestTimeout)
	}
	if c.MaxSessions < 0 {
		return fmt.Errorf("engine: MaxSessions = %d must be non-negative", c.MaxSessions)
	}
	if c.TileCacheCapacity < 0 {
		return fmt.Errorf("engine: TileCacheCapacity = %d must be non-negative", c.TileCacheCapacity)
	}
	return nil
}

// WithDefaults returns the config with zero-valued session and serving
// fields replaced by their documented defaults. Selection fields are
// never touched: their zero values are meaningful (K = 0 selects
// nothing).
func (c Config) WithDefaults() Config {
	if c.MaxZoomOutScale == 0 {
		c.MaxZoomOutScale = DefaultMaxZoomOutScale
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = DefaultSessionTTL
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.TileCacheCapacity == 0 {
		c.TileCacheCapacity = DefaultTileCacheCapacity
	}
	return c
}
