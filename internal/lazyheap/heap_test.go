package lazyheap

import (
	"math/rand"
	"sort"
	"testing"

	"geosel/internal/invariant"
)

// TestStripedMatchesHeapModel drives the flat-map model and the heap
// through an identical random operation sequence — push, pop, remove
// and RefreshTop — and asserts the
// observable behavior — pop order, membership, stored gains, length —
// never diverges. The (gain desc, id asc) order is total, so the heap
// must pop exactly what the model's argmax scan picks.
func TestStripedMatchesHeapModel(t *testing.T) {
	const idSpace = 200
	// One heap serves every seed, Reset between them, as a pooled heap
	// serves one selection after another.
	h := New(idSpace / 2)
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := flatModel{}
		h.Reset(idSpace)
		for op := 0; op < 3000; op++ {
			switch rng.Intn(6) {
			case 0, 1: // push (may replace)
				tu := Tuple{ID: rng.Intn(idSpace), Gain: float64(rng.Intn(50)), Iter: rng.Intn(4)}
				ref.push(tu)
				h.Push(tu)
			case 2: // pop
				rt, rok := ref.pop()
				gt, gok := h.Pop()
				if rok != gok || rt != gt {
					t.Fatalf("seed=%d op %d: pop mismatch ref (%v,%v) heap (%v,%v)", seed, op, rt, rok, gt, gok)
				}
			case 3: // remove arbitrary id
				id := rng.Intn(idSpace)
				if ref.remove(id) != h.Remove(id) {
					t.Fatalf("seed=%d op %d: remove(%d) mismatch", seed, op, id)
				}
			case 4: // a run of pushes with real-valued gains
				for j := rng.Intn(6); j > 0; j-- {
					tu := Tuple{ID: rng.Intn(idSpace), Gain: rng.Float64() * 40, Iter: rng.Intn(4)}
					ref.push(tu)
					h.Push(tu)
				}
			case 5: // refresh the top in place, up or down
				g, it := float64(rng.Intn(50)), rng.Intn(4)
				if ref.refreshTop(g, it) != h.RefreshTop(g, it) {
					t.Fatalf("seed=%d op %d: refreshTop mismatch", seed, op)
				}
			}
			if len(ref) != h.Len() {
				t.Fatalf("seed=%d op %d: len mismatch %d vs %d", seed, op, len(ref), h.Len())
			}
			if op%100 == 0 {
				id := rng.Intn(idSpace)
				if _, in := ref[id]; in != h.Contains(id) {
					t.Fatalf("seed=%d: contains(%d) mismatch", seed, id)
				}
				rg, rok := ref.gain(id)
				gg, gok := h.Gain(id)
				if rok != gok || rg != gg {
					t.Fatalf("seed=%d: gain(%d) mismatch (%v,%v) vs (%v,%v)", seed, id, rg, rok, gg, gok)
				}
			}
		}
		// Drain: the full residual pop sequences must agree too.
		for {
			rt, rok := ref.pop()
			gt, gok := h.Pop()
			if rok != gok || rt != gt {
				t.Fatalf("seed=%d drain: (%v,%v) vs (%v,%v)", seed, rt, rok, gt, gok)
			}
			if !rok {
				break
			}
		}
	}
}

// TestStripedHeapifyMatchesPush verifies Floyd bulk construction pops
// the same sequence as element-wise pushes.
func TestStripedHeapifyMatchesPush(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(11))
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{ID: i, Gain: rng.Float64() * 10, Iter: -1}
	}
	rng.Shuffle(n, func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })

	pushed := New(n)
	for _, tu := range ts {
		pushed.Push(tu)
	}
	built := New(n)
	built.Heapify(ts)

	for {
		a, aok := pushed.Pop()
		b, bok := built.Pop()
		if aok != bok || a != b {
			t.Fatalf("pop divergence: push (%v,%v) heapify (%v,%v)", a, aok, b, bok)
		}
		if !aok {
			return
		}
	}
}

// TestStripedHeapifyNonEmptyPanics pins the construction contract.
func TestStripedHeapifyNonEmptyPanics(t *testing.T) {
	h := New(4)
	h.Push(Tuple{ID: 1, Gain: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Heapify on a non-empty heap did not panic")
		}
	}()
	h.Heapify([]Tuple{{ID: 2, Gain: 2}})
}

// TestStripedIDs verifies the diagnostic accessor.
func TestStripedIDs(t *testing.T) {
	h := New(10)
	for _, id := range []int{7, 3, 5} {
		h.Push(Tuple{ID: id, Gain: float64(id)})
	}
	ids := h.IDs()
	sort.Ints(ids)
	want := []int{3, 5, 7}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
}

// TestStripedSteadyStateAllocs pins the zero-allocation contract of the
// pop/push cycle that dominates the greedy steady state.
func TestStripedSteadyStateAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their diagnostic arguments")
	}
	const n = 256
	h := New(n)
	init := make([]Tuple, n)
	for i := range init {
		init[i] = Tuple{ID: i, Gain: float64(i % 37)}
	}
	h.Heapify(init)
	avg := testing.AllocsPerRun(200, func() {
		tu, _ := h.Pop()
		tu.Gain *= 0.99
		h.Push(tu)
	})
	if avg != 0 {
		t.Fatalf("steady-state pop/push allocates %v per cycle, want 0", avg)
	}
}
