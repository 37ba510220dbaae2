// Package lazyheap implements the max-heap of ⟨object, Δ, iter⟩ tuples
// that powers the paper's "lazy forward" (CELF-style) greedy selection
// (Algorithm 1), with removal of arbitrary entries by id, which the
// greedy algorithm needs when discarding candidates that violate the
// visibility constraint after a selection.
//
// The heap is striped: one max-heap per spatial stripe with a
// pop-best-of-tops merge. Re-inserting every refreshed tuple serially
// on the orchestrating goroutine would be the last serial section of
// the greedy steady state; striping makes re-insertion shardable (each
// stripe is owned by exactly one worker during a batched push, because
// the stripe of an id is a pure function of the id) while preserving
// the exact pop order: the (gain desc, id asc) ordering is total, so
// the best of the stripe tops is the tuple one heap over all entries
// would pop, no matter how they are partitioned. Stripes also line up
// with spatial shards — the same partitioning a distributed frontier
// merge would use (ROADMAP item 1).
//
// Striped is built for a dense id space (object positions of one run):
// membership and position live in flat int32 columns instead of a map,
// and the sift loops are hand-rolled rather than container/heap, so no
// per-push interface boxing — the greedy steady state performs zero
// heap allocations.
package lazyheap

import "geosel/internal/invariant"

// Tuple is one heap entry: a candidate object id, an upper bound (or
// exact value) of its marginal gain Δ, and the greedy iteration at which
// that Δ was computed. A Δ computed at an earlier iteration is only an
// upper bound on the current marginal gain (submodularity, Lemma 4.1 of
// the paper), so the algorithm re-evaluates a popped tuple whose Iter is
// stale before trusting it.
type Tuple struct {
	ID   int
	Gain float64
	Iter int
}

// Runner executes fn(i) for every i in [0, n), possibly concurrently.
// The greedy core passes its pool-backed runner; nil runs serially.
type Runner func(n int, fn func(int))

// Striped is a collection of per-stripe max-heaps over a dense id
// space, popping globally in (gain desc, id asc) order whatever the
// stripe count. The zero value is not usable; construct with
// NewStriped.
//
//geolint:hotpath
type Striped struct {
	stripes  []stripeHeap
	stripeOf func(id int) int
	// pos[id] is the entry index of id within its stripe, -1 when
	// absent; sOf[id] caches the stripe id was pushed into.
	pos []int32
	sOf []int32
	n   int

	// Scratch for PushBatch: per-stripe pending lists and the occupied
	// stripe set, reused across batches so the steady state never
	// allocates.
	pending [][]Tuple
	occ     []int
	flushFn func(int)
	buildFn func(int)
}

type stripeHeap struct {
	entries []Tuple
}

// NewStriped returns an empty striped heap over ids in [0, idSpace).
// stripeOf must be a pure function mapping every id to a stripe; its
// result is clamped into [0, nStripes). nStripes < 1 is treated as 1.
// The pop order never depends on nStripes or stripeOf — they shape only
// where parallel pushes land.
func NewStriped(idSpace, nStripes int, stripeOf func(id int) int) *Striped {
	if nStripes < 1 {
		nStripes = 1
	}
	if stripeOf == nil {
		stripeOf = func(int) int { return 0 }
	}
	h := &Striped{
		stripes:  make([]stripeHeap, nStripes),
		pos:      make([]int32, idSpace),
		sOf:      make([]int32, idSpace),
		pending:  make([][]Tuple, nStripes),
		occ:      make([]int, 0, nStripes),
		stripeOf: stripeOf,
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	h.flushFn = h.flushPending
	h.buildFn = h.buildStripe
	return h
}

// clampStripe resolves an id's stripe.
func (h *Striped) clampStripe(id int) int {
	s := h.stripeOf(id)
	if s < 0 {
		s = 0
	}
	if s >= len(h.stripes) {
		s = len(h.stripes) - 1
	}
	return s
}

// Len reports the number of entries across all stripes.
func (h *Striped) Len() int { return h.n }

// Stripes reports the stripe count.
func (h *Striped) Stripes() int { return len(h.stripes) }

// Push inserts t, replacing any existing entry with the same id.
func (h *Striped) Push(t Tuple) {
	if i := h.pos[t.ID]; i >= 0 {
		s := &h.stripes[h.sOf[t.ID]]
		s.entries[i] = t
		if !h.siftDown(s, int(i)) {
			h.siftUp(s, int(i))
		}
		return
	}
	h.pushNew(h.clampStripe(t.ID), t)
}

// pushNew appends t to stripe si and restores the heap property. The
// caller guarantees t.ID is absent.
func (h *Striped) pushNew(si int, t Tuple) {
	s := &h.stripes[si]
	h.sOf[t.ID] = int32(si)
	h.pos[t.ID] = int32(len(s.entries))
	s.entries = append(s.entries, t)
	h.siftUp(s, len(s.entries)-1)
	h.n++
}

// PushBatch inserts all tuples, sharding the insertions stripe-by-
// stripe over the runner (nil runs serially): each occupied stripe is
// owned by exactly one fn call, and ids map to stripes by a pure
// function, so concurrent stripe updates touch disjoint entries, pos
// and sOf slots. The resulting pop order is identical to len(ts)
// sequential Push calls.
func (h *Striped) PushBatch(ts []Tuple, run Runner) {
	for _, t := range ts {
		// Replacements of live entries cannot be sharded (the stripe
		// holding the old entry may differ from a rebalanced mapping);
		// handle them inline. The greedy core never replaces — popped
		// tuples are re-pushed after removal — so this path is cold.
		if h.pos[t.ID] >= 0 {
			h.Push(t)
			continue
		}
		si := h.clampStripe(t.ID)
		if len(h.pending[si]) == 0 {
			h.occ = append(h.occ, si)
		}
		// A duplicate id within the batch replaces its pending entry
		// (last write wins), exactly like back-to-back Push calls.
		// Batches are at most a few tuples, so the scan is cheap.
		dup := false
		for pi := range h.pending[si] {
			if h.pending[si][pi].ID == t.ID {
				h.pending[si][pi] = t
				dup = true
				break
			}
		}
		if !dup {
			h.pending[si] = append(h.pending[si], t)
		}
	}
	if len(h.occ) == 0 {
		return
	}
	if run == nil || len(h.occ) == 1 {
		for k := range h.occ {
			h.flushPending(k)
		}
	} else {
		run(len(h.occ), h.flushFn)
	}
	h.occ = h.occ[:0]
	// n is recounted after the parallel phase: stripe owners do not
	// share a counter.
	h.n = 0
	for i := range h.stripes {
		h.n += len(h.stripes[i].entries)
	}
}

// flushPending drains the k-th occupied stripe's pending list into its
// heap. Safe to run concurrently across distinct k.
func (h *Striped) flushPending(k int) {
	si := h.occ[k]
	s := &h.stripes[si]
	for _, t := range h.pending[si] {
		h.sOf[t.ID] = int32(si)
		h.pos[t.ID] = int32(len(s.entries))
		s.entries = append(s.entries, t)
		h.siftUp(s, len(s.entries)-1)
	}
	h.pending[si] = h.pending[si][:0]
}

// Heapify bulk-loads ts into an empty striped heap with Floyd's O(n)
// per-stripe construction, sharded over the runner. It panics if the
// heap is not empty; ts must not contain duplicate ids (unlike
// PushBatch, Heapify does not deduplicate — the greedy init tuples are
// distinct by construction). Equivalent to (but faster than) pushing
// every tuple; the pop order is identical.
func (h *Striped) Heapify(ts []Tuple, run Runner) {
	if h.n != 0 {
		// API misuse by the caller, not a data-dependent condition; the
		// greedy core only heapifies freshly-built heaps.
		panic("lazyheap: Heapify on a non-empty striped heap") //geolint:allowpanic
	}
	for _, t := range ts {
		si := h.clampStripe(t.ID)
		if len(h.pending[si]) == 0 {
			h.occ = append(h.occ, si)
		}
		h.pending[si] = append(h.pending[si], t)
	}
	if len(h.occ) == 0 {
		return
	}
	if run == nil || len(h.occ) == 1 {
		for k := range h.occ {
			h.buildStripe(k)
		}
	} else {
		run(len(h.occ), h.buildFn)
	}
	h.occ = h.occ[:0]
	h.n = len(ts)
}

// buildStripe Floyd-builds the k-th occupied stripe from its pending
// list. Safe to run concurrently across distinct k.
func (h *Striped) buildStripe(k int) {
	si := h.occ[k]
	s := &h.stripes[si]
	s.entries = append(s.entries, h.pending[si]...)
	h.pending[si] = h.pending[si][:0]
	for i, t := range s.entries {
		h.sOf[t.ID] = int32(si)
		h.pos[t.ID] = int32(i)
	}
	for i := len(s.entries)/2 - 1; i >= 0; i-- {
		h.siftDown(s, i)
	}
}

// Peek returns the globally best tuple — the best of the stripe tops
// under (gain desc, id asc) — without removing it.
func (h *Striped) Peek() (Tuple, bool) {
	bi := -1
	var bt Tuple
	for i := range h.stripes {
		e := h.stripes[i].entries
		if len(e) == 0 {
			continue
		}
		if bi < 0 || tupleLess(e[0], bt) {
			bi, bt = i, e[0]
		}
	}
	if bi < 0 {
		return Tuple{}, false
	}
	return bt, true
}

// Pop removes and returns the globally best tuple.
func (h *Striped) Pop() (Tuple, bool) {
	bi := -1
	var bt Tuple
	for i := range h.stripes {
		e := h.stripes[i].entries
		if len(e) == 0 {
			continue
		}
		if bi < 0 || tupleLess(e[0], bt) {
			bi, bt = i, e[0]
		}
	}
	if bi < 0 {
		return Tuple{}, false
	}
	h.removeAt(&h.stripes[bi], 0)
	if invariant.Enabled {
		// Deterministic pop-order contract: the popped tuple dominates
		// every remaining top under the (gain desc, id asc) ordering
		// that makes every selection reproducible.
		if u, ok := h.Peek(); ok {
			invariant.Assertf(tupleLess(bt, u),
				"lazyheap: striped pop (id %d, gain %v) does not dominate the remaining top (id %d, gain %v)",
				bt.ID, bt.Gain, u.ID, u.Gain)
		}
		invariant.Assertf(!h.Contains(bt.ID), "lazyheap: striped pop id %d still present", bt.ID)
	}
	return bt, true
}

// Remove deletes the entry with the given id, reporting whether it was
// present.
func (h *Striped) Remove(id int) bool {
	i := h.pos[id]
	if i < 0 {
		return false
	}
	h.removeAt(&h.stripes[h.sOf[id]], int(i))
	return true
}

// Contains reports whether an entry with the given id is present.
func (h *Striped) Contains(id int) bool { return h.pos[id] >= 0 }

// Gain returns the stored gain for id; false when id is absent.
func (h *Striped) Gain(id int) (float64, bool) {
	i := h.pos[id]
	if i < 0 {
		return 0, false
	}
	return h.stripes[h.sOf[id]].entries[i].Gain, true
}

// IDs returns the ids of all entries in unspecified order. It
// allocates; intended for tests and diagnostics, never called from the
// selection loop.
//
//geolint:coldpath
func (h *Striped) IDs() []int {
	out := make([]int, 0, h.n)
	for i := range h.stripes {
		for _, t := range h.stripes[i].entries {
			out = append(out, t.ID)
		}
	}
	return out
}

// removeAt deletes entry i of stripe s, restoring the heap property.
func (h *Striped) removeAt(s *stripeHeap, i int) {
	last := len(s.entries) - 1
	t := s.entries[i]
	h.pos[t.ID] = -1
	if i != last {
		moved := s.entries[last]
		s.entries[i] = moved
		h.pos[moved.ID] = int32(i)
		s.entries = s.entries[:last]
		if !h.siftDown(s, i) {
			h.siftUp(s, i)
		}
	} else {
		s.entries = s.entries[:last]
	}
	h.n--
}

// tupleLess reports whether a sorts before b: a max-heap by gain with
// ties broken by smaller id.
func tupleLess(a, b Tuple) bool {
	if a.Gain != b.Gain {
		return a.Gain > b.Gain
	}
	return a.ID < b.ID
}

// siftUp restores the heap property upward from index i.
func (h *Striped) siftUp(s *stripeHeap, i int) {
	e := s.entries
	for i > 0 {
		parent := (i - 1) / 2
		if !tupleLess(e[i], e[parent]) {
			break
		}
		e[i], e[parent] = e[parent], e[i]
		h.pos[e[i].ID] = int32(i)
		h.pos[e[parent].ID] = int32(parent)
		i = parent
	}
}

// siftDown restores the heap property downward from index i, reporting
// whether the entry moved.
func (h *Striped) siftDown(s *stripeHeap, i int) bool {
	e := s.entries
	n := len(e)
	start := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && tupleLess(e[r], e[l]) {
			best = r
		}
		if !tupleLess(e[best], e[i]) {
			break
		}
		e[i], e[best] = e[best], e[i]
		h.pos[e[i].ID] = int32(i)
		h.pos[e[best].ID] = int32(best)
		i = best
	}
	return i > start
}
