// Support-radius pruning: when the metric certifies a finite support
// radius (sim.SupportRadiused), every O(|O|) pass of the evaluation
// engine — absorb, marginal gain, heap initialization, lazy
// re-evaluation — shrinks to a pass over a per-candidate neighbor list
// built once per run from a uniform grid. On an exact radius
// (EuclideanProximity's MaxDist) the pruned reductions are
// bitwise-identical to the dense ones: every skipped term is exactly
// zero, zero terms never move an AggMax state (0 > best is false for
// non-negative best) and add exactly +0.0 to a non-negative AggSum
// accumulator, and the pruned loops emulate the dense chunk-partial
// order. On an eps radius (GaussianProximity) each pruned pass
// undershoots its dense counterpart by at most eps·Σω, giving the
// additive bound eps·Σω/|O| on the normalized AggMax score.
package core

import (
	"math"
	"sort"

	"geosel/internal/geo"
	"geosel/internal/grid"
	"geosel/internal/sim"
)

// neighborIndex holds CSR-style neighbor lists for the object ids the
// run will evaluate or absorb: row k covers rowIDs[k] and lists, sorted
// by object index, every object within the support radius of it.
type neighborIndex struct {
	// offsets and elems form the CSR layout: row k's neighbors are
	// elems[offsets[k]:offsets[k+1]].
	offsets []int
	elems   []int32
	// rowOf maps an object index to its row, or -1 for objects without
	// one (anything never used as a candidate or forced pick).
	rowOf []int32
	// exact records that the metric is exactly zero beyond the radius,
	// i.e. pruned results are bitwise-equal to dense ones.
	exact bool
	// epsBound is the additive error budget eps·Σω of one truncated
	// pass; zero on the exact path.
	epsBound float64
}

// row returns the neighbor list of object id and whether one exists.
func (x *neighborIndex) row(id int) ([]int32, bool) {
	k := x.rowOf[id]
	if k < 0 {
		return nil, false
	}
	return x.elems[x.offsets[k]:x.offsets[k+1]], true
}

// enablePruning resolves the metric's support radius and, when it
// certifies a usable one, builds the neighbor index for the
// given row ids (the candidates and forced picks of a run, or the
// selection of a Score call). It must run before the first absorb. The
// evaluator stays dense when the radius is unbounded at this eps,
// degenerate (r <= 0), as large as the instance, the instance is below
// the serial cutoff, or the lists turn out too dense to pay off.
func (e *evaluator) enablePruning(m sim.Metric, eps float64, rowIDs []int) {
	n := len(e.objs)
	if n < serialCutoff || len(rowIDs) == 0 || n > math.MaxInt32 {
		return
	}
	radius, exact, ok := sim.SupportRadius(m, eps)
	if !ok {
		return
	}
	nbr := e.buildNeighborIndex(rowIDs, radius)
	if e.err != nil || nbr == nil {
		return
	}
	nbr.exact = exact
	if !exact {
		var sumW float64
		for _, w := range e.w {
			sumW += w
		}
		nbr.epsBound = eps * sumW
	}
	e.nbr = nbr
}

// buildNeighborIndex grids all objects at cell = radius and collects,
// in parallel on the pool (one row per worker task), the neighbor list
// of every row id. It returns nil — dense fallback — when the radius
// spans the whole instance or the lists average more than half of |O|,
// where pruning cannot win. A cancellation mid-build latches e.err
// (callers abort before the possibly-partial index is used).
func (e *evaluator) buildNeighborIndex(rowIDs []int, radius float64) *neighborIndex {
	objs := e.objs
	n := len(objs)
	bounds := geo.Rect{Min: objs[0].Loc, Max: objs[0].Loc}
	for i := 1; i < n; i++ {
		p := objs[i].Loc
		if p.X < bounds.Min.X {
			bounds.Min.X = p.X
		}
		if p.Y < bounds.Min.Y {
			bounds.Min.Y = p.Y
		}
		if p.X > bounds.Max.X {
			bounds.Max.X = p.X
		}
		if p.Y > bounds.Max.Y {
			bounds.Max.Y = p.Y
		}
	}
	if radius >= bounds.Min.Dist(bounds.Max) {
		return nil // every object neighbors every other: nothing to prune
	}
	g, err := grid.New(bounds, radius)
	if err != nil {
		return nil
	}
	for i := 0; i < n; i++ {
		g.Insert(i, objs[i].Loc)
	}
	rows := make([][]int32, len(rowIDs))
	e.run(len(rowIDs), func(k int) {
		ids := g.Neighbors(objs[rowIDs[k]].Loc, radius)
		sort.Ints(ids)
		row := make([]int32, len(ids))
		for j, id := range ids {
			row[j] = int32(id)
		}
		rows[k] = row
	})
	offsets := make([]int, len(rowIDs)+1)
	total := 0
	for k, row := range rows {
		offsets[k] = total
		total += len(row)
	}
	offsets[len(rowIDs)] = total
	if 2*total > n*len(rowIDs) {
		return nil // lists cover most of O: dense chunking is cheaper
	}
	elems := make([]int32, total)
	for k, row := range rows {
		copy(elems[offsets[k]:], row)
	}
	rowOf := make([]int32, n)
	for i := range rowOf {
		rowOf[i] = -1
	}
	for k, id := range rowIDs {
		rowOf[id] = int32(k)
	}
	return &neighborIndex{offsets: offsets, elems: elems, rowOf: rowOf}
}

// marginalPruned computes candidate c's unnormalized marginal gain over
// its neighbor row only. The row is sorted by object index, so it
// splits into one run per dense chunk; each run is gathered and reduced
// to that chunk's partial, and partials are added in increasing chunk
// order — the dense reduction with its all-zero terms left out. On the
// exact path the result is therefore bitwise-identical to
// marginal/marginalLocal: each skipped term would have contributed
// exactly +0.0 to its chunk partial, and an all-skipped chunk would have
// contributed a +0.0 partial to the gain. On the eps path the result
// undershoots the dense gain by at most eps·Σω. Candidates without a
// row fall back to the dense local pass.
//
//geolint:hotpath
func (e *evaluator) marginalPruned(best []float64, c int) float64 {
	row, ok := e.nbr.row(c)
	if !ok {
		return e.marginalLocal(best, c)
	}
	var buf [evalChunk]float64
	var gain float64
	for len(row) > 0 {
		end := (int(row[0])/evalChunk + 1) * evalChunk
		n := 1
		for n < len(row) && int(row[n]) < end {
			n++
		}
		idx, s := row[:n], buf[:n]
		e.rows.Gather(s, idx, c)
		if e.sumAgg() {
			gain += marginalSumRow(e.w, idx, s)
		} else {
			gain += marginalMaxRow(e.w, best, idx, s)
		}
		row = row[n:]
	}
	return gain
}

// absorbPruned updates the aggregation state over sel's neighbor row.
// Row chunks are independent (rows are duplicate-free and writes are
// per-object), so the row is sharded across the pool like the dense
// object range would be. Objects outside the row keep their state —
// exactly what the dense pass would do with their zero similarity.
func (e *evaluator) absorbPruned(best []float64, sel int, row []int32) {
	e.op.best, e.op.sel, e.op.row = best, sel, row
	rowChunks := (len(row) + evalChunk - 1) / evalChunk
	e.run(rowChunks, e.absorbRowFn)
}

// absorbRowTask is the pruned absorb loop body for one row chunk.
//
//geolint:hotpath
func (e *evaluator) absorbRowTask(chunk int) {
	lo, hi := chunkBounds(chunk, len(e.op.row))
	var buf [evalChunk]float64
	idx, s := e.op.row[lo:hi], buf[:hi-lo]
	e.rows.Gather(s, idx, e.op.sel)
	if e.sumAgg() {
		absorbSumRow(e.op.best, idx, s)
	} else {
		absorbMaxRow(e.op.best, idx, s)
	}
}
