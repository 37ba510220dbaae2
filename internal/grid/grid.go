// Package grid implements a uniform grid over a bounded region, used by
// the greedy selector for fast visibility-conflict queries: given a
// freshly selected object, find every remaining candidate within the
// distance threshold θ so it can be discarded (Algorithm 1, lines 11-12).
//
// With cell side = θ, all points within distance θ of a query point lie
// in the 3×3 block of cells around it, so a conflict query inspects O(1)
// cells plus the points they hold.
package grid

import (
	"fmt"

	"geosel/internal/geo"
)

// Grid is a uniform spatial hash of point ids. Create one with New; the
// zero value is not usable.
type Grid struct {
	bounds geo.Rect
	cell   float64
	nx, ny int
	cells  map[int][]entry
	size   int
}

type entry struct {
	id int
	pt geo.Point
}

// New returns a grid covering bounds with the given cell side length.
// Cell must be positive; bounds with zero extent are padded so every
// point of the (degenerate) region still maps to a valid cell.
func New(bounds geo.Rect, cell float64) (*Grid, error) {
	if cell <= 0 {
		return nil, fmt.Errorf("grid: cell side must be positive, got %v", cell)
	}
	if !bounds.Valid() {
		return nil, fmt.Errorf("grid: invalid bounds %v", bounds)
	}
	nx := int(bounds.Width()/cell) + 1
	ny := int(bounds.Height()/cell) + 1
	return &Grid{
		bounds: bounds,
		cell:   cell,
		nx:     nx,
		ny:     ny,
		cells:  make(map[int][]entry),
	}, nil
}

// Len reports the number of points currently stored.
func (g *Grid) Len() int { return g.size }

func (g *Grid) cellCoords(p geo.Point) (int, int) {
	cx := int((p.X - g.bounds.Min.X) / g.cell)
	cy := int((p.Y - g.bounds.Min.Y) / g.cell)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	return cx, cy
}

func (g *Grid) key(cx, cy int) int { return cy*g.nx + cx }

// Insert adds the point with the given id. Multiple points may share an
// id only if the caller never relies on Remove semantics for them;
// normal use inserts unique ids.
func (g *Grid) Insert(id int, p geo.Point) {
	cx, cy := g.cellCoords(p)
	k := g.key(cx, cy)
	g.cells[k] = append(g.cells[k], entry{id: id, pt: p})
	g.size++
}

// Remove deletes the point with the given id located at p (the same
// coordinates passed to Insert). It reports whether the point was found.
func (g *Grid) Remove(id int, p geo.Point) bool {
	cx, cy := g.cellCoords(p)
	k := g.key(cx, cy)
	cellEntries := g.cells[k]
	for i, e := range cellEntries {
		if e.id == id {
			last := len(cellEntries) - 1
			cellEntries[i] = cellEntries[last]
			cellEntries = cellEntries[:last]
			if len(cellEntries) == 0 {
				delete(g.cells, k)
			} else {
				g.cells[k] = cellEntries
			}
			g.size--
			return true
		}
	}
	return false
}

// AppendWithin appends the ids of all stored points within Euclidean
// distance d of q (inclusive) to dst and returns the extended slice, in
// grid-cell order, not sorted; d = 0 matches only points at exactly q,
// and d < 0 matches nothing. With a reused buffer the query is
// allocation-free (the greedy steady state calls this once per pick).
func (g *Grid) AppendWithin(dst []int, q geo.Point, d float64) []int {
	if d < 0 {
		return dst
	}
	d2 := d * d
	// Clamp the cell ring before converting to int: for d spanning the
	// whole grid (including +Inf) the float-to-int conversion is
	// implementation-defined, and the unclamped ring would walk cells
	// that cannot exist anyway.
	r := g.nx + g.ny
	if d < float64(r)*g.cell {
		r = int(d/g.cell) + 1
	}
	qcx, qcy := g.cellCoords(q)
	for cy := qcy - r; cy <= qcy+r; cy++ {
		if cy < 0 || cy >= g.ny {
			continue
		}
		for cx := qcx - r; cx <= qcx+r; cx++ {
			if cx < 0 || cx >= g.nx {
				continue
			}
			for _, e := range g.cells[g.key(cx, cy)] {
				if e.pt.Dist2(q) <= d2 {
					dst = append(dst, e.id)
				}
			}
		}
	}
	return dst
}
