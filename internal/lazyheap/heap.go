// Package lazyheap implements the max-heap of ⟨object, Δ, iter⟩ tuples
// that powers the paper's "lazy forward" (CELF-style) greedy selection
// (Algorithm 1), with removal of arbitrary entries by id, which the
// greedy algorithm needs when discarding candidates that violate the
// visibility constraint after a selection.
//
// Heap is built for a dense id space (object positions of one run):
// membership and position live in a flat int32 column instead of a map,
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

// Heap is a max-heap over a dense id space, popping in (gain desc,
// id asc) order. That order is total, so the pop sequence is a function
// of the entries alone, whatever order they were pushed in. The zero
// value holds no id space; construct one with New, or Reset a reused
// one.
//
//geolint:hotpath
type Heap struct {
	entries []Tuple
	// pos[id] is the entry index of id, -1 when absent.
	pos []int32
}

// New returns an empty heap over ids in [0, idSpace).
func New(idSpace int) *Heap {
	h := new(Heap)
	h.Reset(idSpace)
	return h
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

// Push inserts t, replacing any existing entry with the same id.
func (h *Heap) Push(t Tuple) {
	if i := h.pos[t.ID]; i >= 0 {
		h.entries[i] = t
		if !h.siftDown(int(i)) {
			h.siftUp(int(i))
		}
		return
	}
	h.pos[t.ID] = int32(len(h.entries))
	h.entries = append(h.entries, t)
	h.siftUp(len(h.entries) - 1)
}

// Heapify bulk-loads ts into an empty heap with Floyd's O(n)
// construction. It panics if the heap is not empty; ts must not contain
// duplicate ids (the greedy init tuples are distinct by construction).
// Equivalent to (but faster than) pushing every tuple; the pop order is
// identical.
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
// of a stale top, which would otherwise be a Pop and a Push. The root
// has no parent, so any gain is safe. It reports false on an empty
// heap.
func (h *Heap) RefreshTop(gain float64, iter int) bool {
	if len(h.entries) == 0 {
		return false
	}
	h.entries[0].Gain, h.entries[0].Iter = gain, iter
	h.siftDown(0)
	return true
}

// Pop removes and returns the best tuple.
func (h *Heap) Pop() (Tuple, bool) {
	if len(h.entries) == 0 {
		return Tuple{}, false
	}
	t := h.entries[0]
	h.removeAt(0)
	if invariant.Enabled {
		// Deterministic pop-order contract: the popped tuple dominates
		// the remaining top under the (gain desc, id asc) ordering that
		// makes every selection reproducible.
		if u, ok := h.Peek(); ok {
			invariant.Assertf(tupleLess(t, u),
				"lazyheap: pop (id %d, gain %v) does not dominate the remaining top (id %d, gain %v)",
				t.ID, t.Gain, u.ID, u.Gain)
		}
		invariant.Assertf(!h.Contains(t.ID), "lazyheap: pop id %d still present", t.ID)
	}
	return t, true
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

// Gain returns the stored gain for id; false when id is absent.
func (h *Heap) Gain(id int) (float64, bool) {
	i := h.pos[id]
	if i < 0 {
		return 0, false
	}
	return h.entries[i].Gain, true
}

// IDs returns the ids of all entries in unspecified order. It
// allocates; intended for tests and diagnostics, never called from the
// selection loop.
//
//geolint:coldpath
func (h *Heap) IDs() []int {
	out := make([]int, 0, len(h.entries))
	for _, t := range h.entries {
		out = append(out, t.ID)
	}
	return out
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
