package prefetch

import (
	"context"
	"fmt"

	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/parallel"
	"geosel/internal/sim"
)

// Tiled refines the envelope bounds of Lemmas 5.1–5.3: instead of one
// scalar Σ_{o'∈envelope} ω'·Sim(o,o') per object, it precomputes the
// partial sums per tile of a T×T grid over the envelope. At query time
// the upper bound for a concrete new region sums only the tiles that
// intersect it, so the bound inflates by the boundary-tile sliver
// rather than the whole envelope-to-region area ratio. The result is
// still a valid upper bound — the tile union contains the new region —
// but substantially tighter, which is what lets lazy forward skip most
// candidates in the first iteration.
//
// Cost: the same O(|envelope|²) metric calls as the plain bounds (each
// pairwise term is binned instead of accumulated), plus
// O(|envelope|·T²) memory. Both are paid at prefetch time, while the
// user is inspecting the current view.
type Tiled struct {
	env     geo.Rect
	t       int
	tileW   float64
	tileH   float64
	pos     []int
	contrib [][]float64 // contrib[i][tile] for pos[i]
}

// NewTiled precomputes tiled bounds for the objects at envelopePos over
// the envelope rectangle on workers pool goroutines (0 = all CPUs,
// 1 = serial). tilesPerSide must be at least 1. A cancelled ctx aborts
// between rows and returns ctx.Err().
func NewTiled(ctx context.Context, col *geodata.Collection, envelopePos []int, env geo.Rect, tilesPerSide int, m sim.Metric, workers int) (*Tiled, error) {
	if tilesPerSide < 1 {
		return nil, fmt.Errorf("prefetch: tilesPerSide must be >= 1, got %d", tilesPerSide)
	}
	if !env.Valid() || env.Width() <= 0 || env.Height() <= 0 {
		return nil, fmt.Errorf("prefetch: invalid envelope %v", env)
	}
	t := &Tiled{
		env:   env,
		t:     tilesPerSide,
		tileW: env.Width() / float64(tilesPerSide),
		tileH: env.Height() / float64(tilesPerSide),
		pos:   append([]int(nil), envelopePos...),
	}
	objs := col.Objects
	// Precompute each envelope object's tile once.
	tileOf := make([]int, len(envelopePos))
	for j, q := range envelopePos {
		tileOf[j] = t.tileIndex(objs[q].Loc)
	}
	// One flat arena holds every row: rows are written disjointly by
	// task index, and the tasks allocate nothing.
	nt := tilesPerSide * tilesPerSide
	arena := make([]float64, len(envelopePos)*nt)
	t.contrib = make([][]float64, len(envelopePos))
	for i := range t.contrib {
		t.contrib[i] = arena[i*nt : (i+1)*nt]
	}
	pool := parallel.New(workers)
	defer pool.Close()
	err := pool.Run(ctx, len(envelopePos), func(i int) { //geolint:hotpath
		row := t.contrib[i]
		o := &objs[envelopePos[i]]
		for j, q := range envelopePos {
			row[tileOf[j]] += objs[q].Weight * m.Sim(o, &objs[q])
		}
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// tileIndex maps a location to its tile, clamping out-of-envelope
// points to the nearest edge tile.
func (t *Tiled) tileIndex(p geo.Point) int {
	cx := int((p.X - t.env.Min.X) / t.tileW)
	cy := int((p.Y - t.env.Min.Y) / t.tileH)
	if cx < 0 {
		cx = 0
	}
	if cx >= t.t {
		cx = t.t - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= t.t {
		cy = t.t - 1
	}
	return cy*t.t + cx
}

// tileRect returns the rectangle of tile (cx, cy).
func (t *Tiled) tileRect(cx, cy int) geo.Rect {
	return geo.Rect{
		Min: geo.Point{X: t.env.Min.X + float64(cx)*t.tileW, Y: t.env.Min.Y + float64(cy)*t.tileH},
		Max: geo.Point{X: t.env.Min.X + float64(cx+1)*t.tileW, Y: t.env.Min.Y + float64(cy+1)*t.tileH},
	}
}

// BoundsFor returns, for every precomputed object, the upper bound
// restricted to the tiles intersecting region: Σ over those tiles of the
// object's per-tile contributions. The bound is valid for any new
// region contained in the envelope; regions escaping the envelope fall
// back to the full envelope sum (still an upper bound only if the
// escaping part holds no objects — callers pass regions inside the
// envelope by construction of the navigation envelopes).
func (t *Tiled) BoundsFor(region geo.Rect) map[int]float64 {
	// Identify intersecting tiles.
	active := make([]bool, t.t*t.t)
	for cy := 0; cy < t.t; cy++ {
		for cx := 0; cx < t.t; cx++ {
			if t.tileRect(cx, cy).Intersects(region) {
				active[cy*t.t+cx] = true
			}
		}
	}
	out := make(map[int]float64, len(t.pos))
	for i, p := range t.pos {
		var sum float64
		for tile, on := range active {
			if on {
				sum += t.contrib[i][tile]
			}
		}
		out[p] = sum
	}
	return out
}

// Envelope returns the envelope rectangle the bounds were computed for.
func (t *Tiled) Envelope() geo.Rect { return t.env }
