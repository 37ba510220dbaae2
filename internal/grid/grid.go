// Package grid implements a uniform grid over a bounded region, used by
// the greedy selector for fast visibility-conflict queries: given a
// freshly selected object, find every remaining candidate within the
// distance threshold θ so it can be discarded (Algorithm 1, lines 11-12).
//
// With cell side = θ, all points within distance θ of a query point lie
// in the 5×5 block of cells around it, so a conflict query inspects
// O(1) cells plus the points they hold.
//
// Layout. A Grid is flat: one slice of (cell key, id, point) entries,
// where a cell's key is cy·nx + cx, sorted by key (ids ascending within
// a cell) on the first query after an Insert. The cells of one grid row
// are consecutive keys, so a query finds each row's stretch of its ring
// with one hand-rolled binary search and scans it; there is no map and
// no per-cell slice. Reset lays a grid out — there is no other
// constructor — and keeps the entries' storage, so a grid reused across
// runs allocates nothing once it has held the largest of them. There is
// no Remove: the selector filters query hits by its heap's membership
// instead.
//
// The clamp. The side is raised until neither axis has more than 2³⁰
// cells, so cy·nx + cx cannot overflow however small the requested
// side (a θ of 1e-300 over the unit square asks for 10³⁰⁰ cells). A
// side at least as large as asked stays correct: the query ring is
// sized by the side in use.
package grid

import (
	"cmp"
	"fmt"
	"slices"

	"geosel/internal/geo"
)

// maxAxisCells bounds the cells along either axis; see the clamp.
const maxAxisCells = 1 << 30

// Grid is a uniform spatial hash of point ids. The zero value is not
// usable until Reset lays it out.
type Grid struct {
	bounds geo.Rect
	cell   float64
	nx, ny int
	// ents holds every inserted point, sorted by (key, id) while sorted
	// is true.
	ents   []entry
	sorted bool
}

type entry struct {
	key, id int
	pt      geo.Point
}

// Reset empties the grid and lays it over bounds with the given cell
// side, keeping the entries' storage. Cell must be positive; bounds
// with zero extent still map every point of the (degenerate) region to
// a valid cell.
func (g *Grid) Reset(bounds geo.Rect, cell float64) error {
	if !(cell > 0) {
		return fmt.Errorf("grid: cell side must be positive, got %v", cell)
	}
	if !bounds.Valid() {
		return fmt.Errorf("grid: invalid bounds %v", bounds)
	}
	cell = max(cell, bounds.Width()/maxAxisCells, bounds.Height()/maxAxisCells)
	g.bounds, g.cell = bounds, cell
	g.nx, g.ny = axisCells(bounds.Width(), cell), axisCells(bounds.Height(), cell)
	g.ents, g.sorted = g.ents[:0], true
	return nil
}

// axisCells returns the cells an extent w needs at the given side, at
// most maxAxisCells + 1 (a NaN ratio, from an infinite extent, gets the
// most).
func axisCells(w, cell float64) int {
	f := w / cell
	if !(f < maxAxisCells) {
		f = maxAxisCells
	}
	return int(f) + 1
}

// axis returns the cell index of coordinate offset off along an axis
// of n cells, clamped into [0, n) before any float-to-int conversion.
func (g *Grid) axis(off float64, n int) int {
	f := off / g.cell
	if !(f > 0) {
		return 0
	}
	if f >= float64(n-1) {
		return n - 1
	}
	return int(f)
}

func (g *Grid) cellCoords(p geo.Point) (int, int) {
	return g.axis(p.X-g.bounds.Min.X, g.nx), g.axis(p.Y-g.bounds.Min.Y, g.ny)
}

// Insert adds the point with the given id.
func (g *Grid) Insert(id int, p geo.Point) {
	cx, cy := g.cellCoords(p)
	g.ents = append(g.ents, entry{key: cy*g.nx + cx, id: id, pt: p})
	g.sorted = false
}

// index sorts the entries after Inserts. The first query of a rebuilt
// grid pays it; steady-state queries find the entries sorted.
func (g *Grid) index() {
	slices.SortFunc(g.ents, compareEntries)
	g.sorted = true
}

func compareEntries(a, b entry) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// search returns the index of the first entry whose key is at least
// key.
func (g *Grid) search(key int) int {
	lo, hi := 0, len(g.ents)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if g.ents[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// AppendWithin appends the ids of all stored points within Euclidean
// distance d of q (inclusive) to dst and returns the extended slice, in
// cell order, not sorted; d = 0 matches only points at exactly q, and
// d < 0 matches nothing. With a reused buffer the query is
// allocation-free (the greedy steady state calls this once per pick).
func (g *Grid) AppendWithin(dst []int, q geo.Point, d float64) []int {
	if d < 0 {
		return dst
	}
	if !g.sorted {
		g.index()
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
	x0, x1 := max(qcx-r, 0), min(qcx+r, g.nx-1)
	ents := g.ents
	for cy, y1 := max(qcy-r, 0), min(qcy+r, g.ny-1); cy <= y1; {
		i, hi := g.search(cy*g.nx+x0), cy*g.nx+x1
		for ; i < len(ents) && ents[i].key <= hi; i++ {
			if ents[i].pt.Dist2(q) <= d2 {
				dst = append(dst, ents[i].id)
			}
		}
		if i == len(ents) {
			break
		}
		// Skip the rows that hold nothing.
		cy = max(cy+1, ents[i].key/g.nx)
	}
	return dst
}
