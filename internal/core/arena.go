// One arena across runs. Everything a selection builds for itself —
// the compiled rows, the weight, row and aggregation columns, the
// candidate lists, the heap and its seeds, the conflict grid, the
// residual-support lists and their blocks, and SelectRegion's staged
// objects — lives in one arena, and arenas are reused across runs
// through a package-level sync.Pool: Selector.Run and SelectRegion
// borrow one for the run and hand it back. A warm arena is rebuilt in
// place, so a served selection allocates its Result, Selected and
// Gains (which never come from the arena) and little else, however
// large its region.
//
// Retention is bounded. The residual blocks are uniform, so a run
// reuses whatever blocks earlier runs left and the arena holds at most
// one run's cap of them (residualMaxPairs pairs, 12 MiB); an arena
// whose per-object columns were sized for more than arenaMaxObjects
// objects is not pooled at all but left to the collector.
package core

import (
	"sync"

	"geosel/internal/geodata"
	"geosel/internal/lazyheap"
)

// arenaMaxObjects is the largest region an arena is pooled for: the
// largest |O| whose every recordable support (at most |O|/residualShare
// pairs) fits one uniform block.
const arenaMaxObjects = residualShare * residualBlock

// arena is the reusable state of one selection run. Between runs it
// holds no reference to a caller's objects, metric or context.
type arena struct {
	e evaluator
	// best[i] is Sim(o_i, S), the aggregation state per object.
	best []float64
	// cands holds 0..|O|-1 when every object is a candidate; active and
	// bounds are the candidates left once the forced set's conflicts are
	// gone, and their initial-gain bounds.
	cands, active []int
	bounds        []float64
	// seeds and init are the heap's self-seeded bounds and its
	// bulk-load tuples.
	seeds []float64
	init  []lazyheap.Tuple

	// The lazy greedy's state: the heap, the conflict grid over the run's
	// objects (cg is nil when the run has none, else &grid; the arena
	// owns it, so Reset may rebuild it in place), the residual lists,
	// the selection so far (the Result's own slice, not the arena's),
	// the iteration, and the conflict query's scratch.
	h        lazyheap.Heap
	grid     geodata.Grid
	cg       *geodata.Grid
	res      residual
	selected []int
	iter     int
	doomed   []int

	// SelectRegion's staging: the staged objects, and the run's D, G
	// and bounds in staged indices.
	objs   []geodata.Object
	forced []int
	gcands []int
	gains  []float64
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// getArena borrows an arena from the pool.
func getArena() *arena { return arenas.Get().(*arena) }

// release drops the arena's references to the run's objects, metric,
// context and selection, and returns it to the pool unless its columns
// were sized for more than arenaMaxObjects objects.
func (a *arena) release() {
	if cap(a.best) > arenaMaxObjects || cap(a.objs) > arenaMaxObjects {
		return
	}
	clear(a.objs)
	a.objs = a.objs[:0]
	a.e.objs, a.e.ctx, a.e.done, a.e.err = nil, nil, nil, nil
	a.e.rows.Reset(nil, nil)
	a.selected = nil
	arenas.Put(a)
}

// stage copies the objects at positions pos of col into the arena, in
// pos order.
func (a *arena) stage(col *geodata.Collection, pos []int) []geodata.Object {
	a.objs = resize(a.objs, len(pos))
	for i, p := range pos {
		a.objs[i] = col.Objects[p]
	}
	return a.objs
}
