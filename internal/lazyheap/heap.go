// Package lazyheap implements the max-heap of ⟨object, Δ, iter⟩ tuples
// behind the paper's "lazy forward" (CELF-style) greedy selection
// (Algorithm 1). It has exactly the operations Algorithm 1 performs:
// bulk-load the initial bounds (Heapify), look at the top (Peek),
// re-evaluate a stale top in place (RefreshTop), and drop the pick and
// the candidates that violate the visibility constraint after a
// selection (Contains, Remove). Its pop-order contract is asserted
// where the greedy takes a top out (CheckTaken).
//
// Heap is built for a dense id space (object positions of one run):
// membership and position live in a flat int32 column instead of a map,
// and the sift loops are hand-rolled rather than container/heap, so no
// interface boxing — the greedy steady state performs zero heap
// allocations.
package lazyheap

import "geosel/internal/invariant"

// Tuple is one heap entry: a candidate object id, an upper bound (or
// exact value) of its marginal gain Δ, and the greedy iteration at which
// that Δ was computed. A Δ computed at an earlier iteration is only an
// upper bound on the current marginal gain (submodularity, Lemma 4.1 of
// the paper), so the algorithm re-evaluates a top tuple whose Iter is
// stale before trusting it.
type Tuple struct {
	ID   int
	Gain float64
	Iter int
}

// Heap is a max-heap over a dense id space, its top the best entry in
// (gain desc, id asc) order. That order is total, so the top is a
// function of the entries alone, whatever order they were loaded or
// removed in. The zero value holds no id space; Reset sizes it.
//
//geolint:hotpath
type Heap struct {
	entries []Tuple
	// pos[id] is the entry index of id, -1 when absent.
	pos []int32
}

// Reset empties the heap and sizes it for ids in [0, idSpace), keeping
// its storage: a heap reused across runs allocates only when a run's
// id space or entry count outgrows every earlier one. It is setup, run
// once per selection, not part of the steady state.
//
//geolint:coldpath
func (h *Heap) Reset(idSpace int) {
	h.entries = h.entries[:0]
	if cap(h.pos) < idSpace {
		h.pos = make([]int32, idSpace)
	}
	h.pos = h.pos[:idSpace]
	for i := range h.pos {
		h.pos[i] = -1
	}
}

// Len reports the number of entries.
func (h *Heap) Len() int { return len(h.entries) }

// Heapify bulk-loads ts into an empty heap with Floyd's O(n)
// construction. It panics if the heap is not empty; ts must not contain
// duplicate ids (the greedy init tuples are distinct by construction).
// The top depends on the tuples alone, not on their order in ts.
func (h *Heap) Heapify(ts []Tuple) {
	if len(h.entries) != 0 {
		// API misuse by the caller, not a data-dependent condition; the
		// greedy core only heapifies freshly-built heaps.
		panic("lazyheap: Heapify on a non-empty heap") //geolint:allowpanic
	}
	h.entries = append(h.entries, ts...)
	for i, t := range h.entries {
		h.pos[t.ID] = int32(i)
	}
	for i := len(h.entries)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// Peek returns the best tuple under (gain desc, id asc) without
// removing it.
func (h *Heap) Peek() (Tuple, bool) {
	if len(h.entries) == 0 {
		return Tuple{}, false
	}
	return h.entries[0], true
}

// RefreshTop replaces the top entry's gain and iteration in place and
// restores the heap property with one sift down — the lazy re-evaluation
// of a stale top, which would otherwise be a removal and a re-insertion.
// The root has no parent, so any gain is safe. It reports false on an
// empty heap.
func (h *Heap) RefreshTop(gain float64, iter int) bool {
	if len(h.entries) == 0 {
		return false
	}
	h.entries[0].Gain, h.entries[0].Iter = gain, iter
	h.siftDown(0)
	return true
}

// Remove deletes the entry with the given id, reporting whether it was
// present.
func (h *Heap) Remove(id int) bool {
	i := h.pos[id]
	if i < 0 {
		return false
	}
	h.removeAt(int(i))
	return true
}

// Contains reports whether an entry with the given id is present.
func (h *Heap) Contains(id int) bool { return h.pos[id] >= 0 }

// CheckTaken asserts the deterministic pop-order contract on t, a top
// the caller has just taken out of the heap with Remove (together with
// any other entries it removed): t is gone, and it dominates the new
// top under the (gain desc, id asc) order that makes every selection
// reproducible. It checks nothing unless invariant.Enabled.
func (h *Heap) CheckTaken(t Tuple) {
	if invariant.Enabled {
		invariant.Assertf(!h.Contains(t.ID), "lazyheap: taken id %d still present", t.ID)
		if u, ok := h.Peek(); ok {
			invariant.Assertf(tupleLess(t, u),
				"lazyheap: taken (id %d, gain %v) does not dominate the new top (id %d, gain %v)",
				t.ID, t.Gain, u.ID, u.Gain)
		}
	}
}

// removeAt deletes entry i, restoring the heap property.
func (h *Heap) removeAt(i int) {
	last := len(h.entries) - 1
	h.pos[h.entries[i].ID] = -1
	if i != last {
		moved := h.entries[last]
		h.entries[i] = moved
		h.pos[moved.ID] = int32(i)
		h.entries = h.entries[:last]
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	} else {
		h.entries = h.entries[:last]
	}
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
func (h *Heap) siftUp(i int) {
	e := h.entries
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
func (h *Heap) siftDown(i int) bool {
	e := h.entries
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
