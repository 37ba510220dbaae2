// Package tilecache materializes greedy selections at XYZ-tile
// granularity and serves viewport queries by stitching cached tiles
// together with a seam-repair pass. A tile's selection depends only on
// the tile's objects and the quantized selection shape, so it is
// shareable across every viewport, session and client that overlaps the
// tile — the selection analogue of a map server's rendered-tile cache.
//
// The pipeline per viewport: quantize (zoom level from the viewport
// side, θ-band from the requested visibility threshold), fetch the
// covering tiles through one LRU under one lock, with per-key
// singleflight (computing misses through core.SelectRegion), then stitch
// the cached per-tile selections: members are re-kept greedily in
// (gain desc, position asc) order under the *requested* θ, which
// resolves cross-tile θ-conflicts along tile seams. When the repair
// pass has to drop more than 1/8 of the stitched gain mass (the greedy
// approximation bound), the stitch is declared unsalvageable and the
// cache falls back to a full greedy run over the viewport —
// bitwise-identical to the uncached path.
//
// Invalidation rides the livestore epoch machinery: a view exposing
// DirtyRects (livestore.Snapshot does) reports each epoch's dirty
// rectangles — per grid cell it rewrote, the bounding box of the
// locations it removed or added there — and a tile entry stays valid
// across epochs exactly when no dirty rectangle meets it: its region
// then holds the same positions, so it would recompute to the same
// selection and bytes. Validity is (re)established at
// lookup time against the serving snapshot, so a stitched viewport can
// never mix tiles from different effective epochs.
package tilecache

import (
	"math"

	"geosel/internal/geo"
)

// maxZoom bounds the tile pyramid depth. At zoom 24 a tile of the unit
// square is ~6e-8 on a side — far below any useful viewport, and deep
// enough that zoomFor's clamp never changes a realistic request.
const maxZoom = 24

// maxStitchTiles bounds how many tiles one stitched viewport may touch.
// zoomFor keeps tiles at least half the viewport side, so a viewport
// spans at most 3×3 tiles plus boundary slack; anything larger signals
// a degenerate region and falls back to the direct path.
const maxStitchTiles = 16

// unitRect is the tiled world: datasets are normalized into the unit
// square (see geo package doc), and the pyramid covers exactly that.
var unitRect = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1, Y: 1}}

// Tile identifies one cell of the XYZ pyramid over the unit square:
// zoom z splits the square into 2^z × 2^z tiles of side 2^-z, with
// (x, y) counting tile columns and rows from the lower-left corner.
type Tile struct {
	Z, X, Y int32
}

// Side returns the world-space side length of a zoom-z tile.
func Side(z int32) float64 { return math.Ldexp(1, -int(z)) }

// Rect returns the tile's world-space rectangle. Boundaries are shared
// with the neighboring tiles; an object exactly on a boundary belongs
// to both tiles' regions and is deduplicated at stitch time.
func (t Tile) Rect() geo.Rect {
	s := Side(t.Z)
	return geo.Rect{
		Min: geo.Point{X: float64(t.X) * s, Y: float64(t.Y) * s},
		Max: geo.Point{X: float64(t.X+1) * s, Y: float64(t.Y+1) * s},
	}
}

// Key identifies one materialized tile selection: the tile itself plus
// the quantized selection shape — the θ-band and the selection size.
// The snapshot version is deliberately not part of the key: a clean
// tile carries forward across epochs, and validity is tracked on the
// entry (see entry.ver).
type Key struct {
	T Tile
	// Band is the quantized θ index from bandFor; bandZero encodes a
	// zero threshold (no visibility constraint).
	Band int32
	// K is the per-tile selection size, taken verbatim from the request.
	K int32
}

// zoomFor picks the tile zoom for a viewport of the given side length:
// the deepest level whose tiles are still at least half the viewport
// side. Deeper tiles would multiply the per-viewport tile count (and
// the seam length); shallower tiles would waste selection work outside
// the viewport.
func zoomFor(side float64) int32 {
	if side <= 0 {
		return maxZoom
	}
	z := int32(math.Floor(1 - math.Log2(side)))
	if z < 0 {
		return 0
	}
	if z > maxZoom {
		return maxZoom
	}
	return z
}

// bandZero is the Band value for θ = 0 (no visibility constraint).
const bandZero int32 = math.MaxInt32

// bandClamp bounds band indices; 64 halvings of θ relative to the tile
// side covers every float64 of practical interest.
const bandClamp = 64

// thetaBands is the θ-quantization resolution of the tile key: a
// requested θ is rounded up to the nearest of thetaBands logarithmic
// bands per halving, so near-duplicate viewports share cached tiles
// while every served tile is at least as separated as requested.
const thetaBands = 4

// bandFor quantizes the requested θ at zoom z: band b represents
// θ_b = Side(z) · 2^(-b / thetaBands), and the request maps to the
// largest b with θ_b >= θ — rounding θ *up* to its band representative,
// so every cached tile is at least as separated as any request sharing
// its key.
func bandFor(theta float64, z int32) int32 {
	if theta <= 0 {
		return bandZero
	}
	b := math.Floor(thetaBands * math.Log2(Side(z)/theta))
	if lim := float64(bandClamp * thetaBands); b > lim {
		b = lim
	} else if b < -lim {
		b = -lim
	}
	return int32(b)
}

// bandTheta returns the band's representative θ — the value the tile's
// selection is actually computed with.
func bandTheta(z, band int32) float64 {
	if band == bandZero {
		return 0
	}
	return Side(z) * math.Pow(2, -float64(band)/thetaBands)
}

// coverRange returns the inclusive tile-coordinate range of the zoom-z
// tiles overlapping r. r must already be clipped to the unit square;
// ok is false when r is invalid or degenerate-outside.
func coverRange(r geo.Rect, z int32) (x0, y0, x1, y1 int32, ok bool) {
	if !r.Valid() {
		return 0, 0, 0, 0, false
	}
	n := int32(1) << uint(z)
	s := Side(z)
	x0 = clampTile(int32(math.Floor(r.Min.X/s)), n)
	y0 = clampTile(int32(math.Floor(r.Min.Y/s)), n)
	x1 = clampTile(int32(math.Floor(r.Max.X/s)), n)
	y1 = clampTile(int32(math.Floor(r.Max.Y/s)), n)
	return x0, y0, x1, y1, true
}

func clampTile(v, n int32) int32 {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}
