// The one spatial index: a uniform grid over collection positions
// whose cell table is copy-on-write. A static Store builds it once; the
// live store (internal/livestore) builds it at version 0 and at every
// compaction, and commits each epoch into it: Commit clones the table
// of cell-slice headers (one memmove) and rewrites only the cells the
// mutation delta touches, while every untouched cell keeps sharing its
// position slice with the previous epoch's grid. A full build walks
// every object; the incremental commit is O(batch + cells), which is
// what makes high-frequency small batches affordable (see
// BenchmarkEpochCommit and BenchmarkApply in internal/livestore).
//
// The greedy (internal/core) reads the same index for Algorithm 1's
// θ-conflict removal: each run Resets a grid its arena owns over the
// run's objects, and every pick asks AppendRegion for the square of
// half-side θ around it.

package geodata

import "geosel/internal/geo"

// Grid sizing: cells are chosen so the average cell holds a few objects
// (targetPerCell), bounded so the per-epoch header clone stays cheap
// even for huge datasets and the grid stays non-degenerate for tiny
// ones.
const (
	targetPerCell = 8
	minCells      = 16
	maxCells      = 1 << 16
)

// Grid is one immutable uniform grid over collection positions. The
// cells table is private to its grid; the position slices inside it may
// be shared with other epochs' grids and must never be written.
type Grid struct {
	bounds geo.Rect
	cell   float64
	nx, ny int
	cells  [][]int32
	// arena backs every built cell; end is the build's count scratch.
	arena, end []int32
}

// gridGeometry derives the fixed cell layout from the build bounds and
// object count. Bounds are padded so build points sit strictly inside;
// later inserts outside the padded bounds clamp to edge cells, which
// region queries handle by filtering on true coordinates. An extent
// whose area overflows (corners near ±1e200 or beyond) has no finite
// cell size: it gets one cell.
func gridGeometry(b geo.Rect, n int) (geo.Rect, float64, int, int) {
	w, h := b.Width(), b.Height()
	pad := 0.005 * (w + h)
	if pad <= 0 {
		pad = 1e-9
	}
	b = geo.Rect{
		Min: geo.Pt(b.Min.X-pad, b.Min.Y-pad),
		Max: geo.Pt(b.Max.X+pad, b.Max.Y+pad),
	}
	target := n / targetPerCell
	if target < minCells {
		target = minCells
	}
	if target > maxCells {
		target = maxCells
	}
	w, h = b.Width(), b.Height()
	cell := sqrtPos(w * h / float64(target))
	if !(cell <= hugeCoord) { // +Inf or NaN
		return b, hugeCoord, 1, 1
	}
	if cell <= 0 {
		cell = 1e-9
	}
	nx := int(w/cell) + 1
	ny := int(h/cell) + 1
	return b, cell, nx, ny
}

// sqrtPos is a Newton square root for non-negative inputs, avoiding a
// math import for one call site.
func sqrtPos(x float64) float64 {
	if x <= 0 {
		return 0
	}
	g := x
	if g > 1 {
		g = x / 2
	}
	for i := 0; i < 64; i++ {
		n := 0.5 * (g + x/g)
		if n == g {
			break
		}
		g = n
	}
	return g
}

func (g *Grid) cellCoords(p geo.Point) (int, int) {
	return clampCell((p.X-g.bounds.Min.X)/g.cell, g.nx), clampCell((p.Y-g.bounds.Min.Y)/g.cell, g.ny)
}

// clampCell truncates the cell offset f into [0, n-1]. It clamps the
// float before converting it: a float beyond int's range converts to an
// implementation-defined value (the most negative int on amd64), which
// would put a far-away point, or a query corner, in the wrong edge cell.
func clampCell(f float64, n int) int {
	if !(f >= 0) {
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

func (g *Grid) cellKey(p geo.Point) int {
	cx, cy := g.cellCoords(p)
	return cy*g.nx + cx
}

// hugeCoord bounds a finite cell side: an extent whose area overflows
// gets one cell (the package deliberately avoids a math import).
const hugeCoord = 1e300

// NewGrid builds a grid from scratch over every position of objs, its
// layout derived from their bounding rectangle and count. A static
// Store builds one; a live store builds one at version 0 and at every
// compaction, and commits every other epoch incrementally.
func NewGrid(objs []Object) *Grid {
	g := new(Grid)
	g.Reset(objs)
	return g
}

// Reset rebuilds g in place over every position of objs, as NewGrid
// builds a new grid, keeping the storage of its cell table, arena and
// count scratch. It is only for a grid no reader shares: it rewrites
// the arena every cell slices, and grids Commit derives from g share
// those cells across epochs.
//
// The cells are filled by a counting sort: one pass counts each cell's
// positions, a prefix sum turns the counts into offsets, and a second
// pass places every position, ascending within its cell, into the
// int32 arena that every cell slices with its capacity capped at its
// length.
func (g *Grid) Reset(objs []Object) {
	b := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)}
	for i := range objs {
		pr := geo.Rect{Min: objs[i].Loc, Max: objs[i].Loc}
		if i == 0 {
			b = pr
		} else {
			b = b.Union(pr)
		}
	}
	g.bounds, g.cell, g.nx, g.ny = gridGeometry(b, len(objs))
	g.cells = resize(g.cells, g.nx*g.ny)
	end := resize(g.end, len(g.cells)) // cell k's count, then the arena offset past it
	clear(end)
	for i := range objs {
		end[g.cellKey(objs[i].Loc)]++
	}
	var off int32
	for k, c := range end {
		off += c
		end[k] = off
	}
	arena := resize(g.arena, len(objs))
	for i := len(objs) - 1; i >= 0; i-- {
		k := g.cellKey(objs[i].Loc)
		end[k]--
		arena[end[k]] = int32(i)
	}
	// end[k] is now cell k's start, and cell k ends where cell k+1 starts.
	for k := range g.cells {
		hi := int32(len(arena))
		if k+1 < len(end) {
			hi = end[k+1]
		}
		g.cells[k] = arena[end[k]:hi:hi]
	}
	g.arena, g.end = arena, end
}

// resize returns s with length n, reallocated only when its capacity is
// short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// PosLoc pairs a collection position with its location, the unit of a
// grid mutation delta.
type PosLoc struct {
	Pos int32
	Loc geo.Point
}

// Commit returns the next epoch's grid — the cell table cloned, plus
// the delta applied cell by cell — and, for each cell the delta
// touched, the bounding box of the delta's locations in it: the epoch's
// dirty rectangles. dels and adds carry the positions leaving and
// entering the index with their locations. g itself is not modified.
//
// The boxes are exact where cells are not: a region that meets none of
// them holds the same positions before and after the commit, whatever
// cells it shares with the delta, and a location clamped into an edge
// cell from far outside the grid is covered by the box of the location
// itself. A NaN location lies in no region, so it widens no box.
func (g *Grid) Commit(dels, adds []PosLoc) (*Grid, []geo.Rect) {
	next := &Grid{bounds: g.bounds, cell: g.cell, nx: g.nx, ny: g.ny}
	next.cells = make([][]int32, len(g.cells))
	copy(next.cells, g.cells)

	// Group the delta by cell without maps: a direct-address table from
	// cell key to a dense delta record (the table is O(cells) zeroed
	// int32s — far cheaper than the map allocations it replaces, which
	// dominated commit time at realistic batch sizes). Per-cell delete
	// membership is a linear scan: cells average targetPerCell entries
	// and deltas per cell are small, so a scan beats a hash set.
	type cellDelta struct {
		key  int
		dels []int32
		adds []int32
		box  geo.Rect
		some bool // box holds at least one location
	}
	at := make([]int32, len(g.cells)) // key -> index+1 into deltas
	var deltas []cellDelta
	touch := func(p geo.Point) *cellDelta {
		k := g.cellKey(p)
		if at[k] == 0 {
			deltas = append(deltas, cellDelta{key: k})
			at[k] = int32(len(deltas))
		}
		d := &deltas[at[k]-1]
		switch {
		case p.X != p.X || p.Y != p.Y:
		case !d.some:
			d.box, d.some = geo.Rect{Min: p, Max: p}, true
		default:
			d.box.Min.X, d.box.Max.X = min(d.box.Min.X, p.X), max(d.box.Max.X, p.X)
			d.box.Min.Y, d.box.Max.Y = min(d.box.Min.Y, p.Y), max(d.box.Max.Y, p.Y)
		}
		return d
	}
	for _, pl := range dels {
		d := touch(pl.Loc)
		d.dels = append(d.dels, pl.Pos)
	}
	for _, pl := range adds {
		d := touch(pl.Loc)
		d.adds = append(d.adds, pl.Pos)
	}

	// One arena backs every rewritten cell: each dirty cell takes the
	// next region sized to its upper bound (old length + adds), so the
	// whole rewrite costs one allocation.
	size := 0
	for i := range deltas {
		size += len(next.cells[deltas[i].key]) + len(deltas[i].adds)
	}
	arena := make([]int32, 0, size)
	dirty := make([]geo.Rect, 0, len(deltas))
	for i := range deltas {
		d := &deltas[i]
		start := len(arena)
		for _, id := range next.cells[d.key] {
			if !contains32(d.dels, id) {
				arena = append(arena, id)
			}
		}
		arena = append(arena, d.adds...)
		next.cells[d.key] = arena[start:len(arena):len(arena)]
		if d.some {
			dirty = append(dirty, d.box)
		}
	}
	return next, dirty
}

// contains32 reports whether v occurs in s (small-slice membership).
func contains32(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Interior cells. A cell strictly inside the query's cell range on
// both axes — cx0 < cx < cx1 and cy0 < cy < cy1, where (cx0, cy0) and
// (cx1, cy1) are the cells of r.Min and r.Max — holds only points of r,
// so AppendRegion and CountRegion take it whole, without a point
// test. Every point p sits in cell cellCoords(p), and cellCoords is
// monotone on each axis: a subtraction and a division by the positive
// cell side each preserve order (rounding included), and so do
// clampCell's clamp and truncation. A point with p.X < r.Min.X would therefore lie in a
// column ≤ cx0, one with p.X > r.Max.X in a column ≥ cx1; a point of
// column cx has neither, so r.Min.X ≤ p.X ≤ r.Max.X, and likewise on y.
// Rect.Contains is inclusive, so that is containment. (Such a cell is
// never a clamped edge cell either: 0 ≤ cx0 < cx < cx1 ≤ nx-1.) Only
// the cells on the rim of the range test their points.

// Region returns the indexed positions whose objs location lies inside
// r, in ascending position order (SortPositions, the order every View's
// Region answers in). objs must be the slice the grid's positions
// index.
func (g *Grid) Region(objs []Object, r geo.Rect) []int {
	dst := g.AppendRegion(nil, objs, r)
	SortPositions(dst)
	return dst
}

// AppendRegion appends to dst the indexed positions whose objs location
// lies inside r, in cell order — row by row, ascending within a cell —
// and returns the extended slice. With room in dst it allocates
// nothing: the greedy's conflict query calls it once per pick.
//
//geolint:hotpath
func (g *Grid) AppendRegion(dst []int, objs []Object, r geo.Rect) []int {
	if !r.Valid() {
		return dst
	}
	cx0, cy0 := g.cellCoords(r.Min)
	cx1, cy1 := g.cellCoords(r.Max)
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * g.nx
		innerRow := cy0 < cy && cy < cy1
		for cx := cx0; cx <= cx1; cx++ {
			if innerRow && cx0 < cx && cx < cx1 {
				for _, id := range g.cells[row+cx] {
					dst = append(dst, int(id))
				}
				continue
			}
			for _, id := range g.cells[row+cx] {
				if r.Contains(objs[id].Loc) {
					dst = append(dst, int(id))
				}
			}
		}
	}
	return dst
}

// CountRegion counts the indexed positions whose objs location lies
// inside r.
func (g *Grid) CountRegion(objs []Object, r geo.Rect) int {
	if !r.Valid() {
		return 0
	}
	cx0, cy0 := g.cellCoords(r.Min)
	cx1, cy1 := g.cellCoords(r.Max)
	n := 0
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * g.nx
		innerRow := cy0 < cy && cy < cy1
		for cx := cx0; cx <= cx1; cx++ {
			if innerRow && cx0 < cx && cx < cx1 {
				n += len(g.cells[row+cx])
				continue
			}
			for _, id := range g.cells[row+cx] {
				if r.Contains(objs[id].Loc) {
					n++
				}
			}
		}
	}
	return n
}
