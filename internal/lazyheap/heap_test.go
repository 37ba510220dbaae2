package lazyheap

import (
	"math/rand"
	"slices"
	"testing"

	"geosel/internal/invariant"
)

// TestStripedMatchesHeapModel drives the flat-map model and the heap
// through the operation mix of one greedy run after another — Reset,
// Heapify of the seeds, then Peek, RefreshTop of a stale top, and the
// selection of a fresh top with Remove of it and its conflicts, which
// skips ids no longer present by Contains — and asserts that the
// observable behavior — top, membership, length — never diverges. The
// (gain desc, id asc) order is total, so the heap's top must be exactly
// what the model's argmax scan picks.
func TestStripedMatchesHeapModel(t *testing.T) {
	// One heap serves every run, Reset between them to a larger or a
	// smaller id space, as a pooled heap serves one selection after
	// another.
	var h Heap
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idSpace := 50 + rng.Intn(400)
		h.Reset(idSpace)
		if h.Len() != 0 {
			t.Fatalf("seed=%d: Reset left %d entries", seed, h.Len())
		}
		ts := randomTuples(rng, rng.Intn(idSpace+1), idSpace)
		ref := flatModel{}
		ref.load(ts)
		h.Heapify(ts)
		for iter := 0; h.Len() > 0; {
			want, _ := modelMax(ref)
			got, ok := h.Peek()
			if !ok || got != want {
				t.Fatalf("seed=%d: Peek = (%+v, %v), model max %+v", seed, got, ok, want)
			}
			if got.Iter != iter {
				// Stale: re-evaluate in place, usually down, as a lazy
				// refresh does; now and then up or unchanged, which the
				// heap must order all the same.
				g := got.Gain * rng.Float64()
				switch rng.Intn(8) {
				case 0:
					g = got.Gain
				case 1:
					g = got.Gain + 1
				}
				if !h.RefreshTop(g, iter) || !ref.refreshTop(g, iter) {
					t.Fatalf("seed=%d: RefreshTop on a non-empty heap failed", seed)
				}
			} else {
				// Fresh: select it, dropping a few random conflicts,
				// present or not.
				var conflicts []int
				for j := rng.Intn(5); j > 0; j-- {
					conflicts = append(conflicts, rng.Intn(idSpace))
				}
				if tu, _ := take(&h, conflicts...); tu != got {
					t.Fatalf("seed=%d: took %+v after peeking %+v", seed, tu, got)
				}
				ref.remove(got.ID)
				for _, id := range conflicts {
					ref.remove(id)
				}
				iter++
			}
			if len(ref) != h.Len() {
				t.Fatalf("seed=%d: len mismatch %d vs %d", seed, len(ref), h.Len())
			}
			id := rng.Intn(idSpace)
			if _, in := ref[id]; in != h.Contains(id) {
				t.Fatalf("seed=%d: contains(%d) mismatch", seed, id)
			}
		}
		if _, ok := h.Peek(); ok || h.RefreshTop(1, 0) {
			t.Fatalf("seed=%d: a drained heap still has a top", seed)
		}
	}
}

// TestHeapifyIgnoresInputOrder verifies that Floyd bulk construction
// yields the same sequence of tops whatever order the tuples arrive in.
func TestHeapifyIgnoresInputOrder(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(11))
	ts := randomTuples(rng, n, n)
	sorted := slices.Clone(ts)
	slices.SortFunc(sorted, func(a, b Tuple) int { return a.ID - b.ID })

	var shuffled, ordered Heap
	shuffled.Reset(n)
	shuffled.Heapify(ts)
	ordered.Reset(n)
	ordered.Heapify(sorted)
	for {
		a, aok := take(&shuffled)
		b, bok := take(&ordered)
		if aok != bok || a != b {
			t.Fatalf("top divergence: shuffled (%v,%v) sorted (%v,%v)", a, aok, b, bok)
		}
		if !aok {
			return
		}
	}
}

// TestStripedHeapifyNonEmptyPanics pins the construction contract.
func TestStripedHeapifyNonEmptyPanics(t *testing.T) {
	var h Heap
	h.Reset(4)
	h.Heapify([]Tuple{{ID: 1, Gain: 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("Heapify on a non-empty heap did not panic")
		}
	}()
	h.Heapify([]Tuple{{ID: 2, Gain: 2}})
}

// TestStripedSteadyStateAllocs pins the zero-allocation contract of the
// greedy steady state: peek, refresh the stale top, take the fresh one
// out with a conflict.
func TestStripedSteadyStateAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their diagnostic arguments")
	}
	const n = 1024
	var h Heap
	h.Reset(n)
	init := make([]Tuple, n)
	for i := range init {
		init[i] = Tuple{ID: i, Gain: float64(i % 37)}
	}
	h.Heapify(init)
	avg := testing.AllocsPerRun(200, func() {
		tu, _ := h.Peek()
		h.RefreshTop(tu.Gain*0.99, 1)
		take(&h, (tu.ID+1)%n)
	})
	if avg != 0 {
		t.Fatalf("steady-state refresh/take allocates %v per cycle, want 0", avg)
	}
}

// TestHeapCycleAllocatesNothing drives every method but Reset through
// whole cycles on storage an earlier cycle sized: bulk load, refresh the
// top, then take entries out with the pop-order check until none is
// left.
func TestHeapCycleAllocatesNothing(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their diagnostic arguments")
	}
	const n = 256
	var h Heap
	h.Reset(n)
	init := make([]Tuple, n)
	for i := range init {
		init[i] = Tuple{ID: i, Gain: float64(i % 37)}
	}
	avg := testing.AllocsPerRun(100, func() {
		h.Heapify(init)
		h.RefreshTop(-1, 1)
		for h.Len() > 0 {
			tu, _ := h.Peek()
			h.Remove(tu.ID)
			if h.Contains(tu.ID) {
				panic("a removed id is still present")
			}
			h.CheckTaken(tu)
		}
	})
	if avg != 0 {
		t.Fatalf("a heap cycle allocates %v, want 0", avg)
	}
}
