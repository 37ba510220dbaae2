package lazyheap

import (
	"math/rand"
	"sort"
	"testing"

	"geosel/internal/invariant"
)

// refStripeOf builds a deterministic pseudo-random stripe assignment.
func refStripeOf(seed int64) func(int) int {
	return func(id int) int {
		x := uint64(id)*0x9e3779b97f4a7c15 + uint64(seed)
		x ^= x >> 33
		return int(x % 1024) // clamped by Striped to the stripe count
	}
}

// TestStripedMatchesHeapModel drives the flat-map model and Striped
// heaps of several stripe counts through an identical random operation
// sequence and asserts the observable behavior — pop order, membership, stored
// gains, length — never diverges. This is the stripe-count-invariance
// contract: the (gain desc, id asc) order is total, so partitioning the
// entries can never change which tuple is globally best.
func TestStripedMatchesHeapModel(t *testing.T) {
	const idSpace = 200
	for _, stripes := range []int{1, 2, 3, 8, 64} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ref := flatModel{}
			st := NewStriped(idSpace, stripes, refStripeOf(seed))
			for op := 0; op < 3000; op++ {
				switch rng.Intn(5) {
				case 0, 1: // push (may replace)
					tu := Tuple{ID: rng.Intn(idSpace), Gain: float64(rng.Intn(50)), Iter: rng.Intn(4)}
					ref.push(tu)
					st.Push(tu)
				case 2: // pop
					rt, rok := ref.pop()
					gt, gok := st.Pop()
					if rok != gok || rt != gt {
						t.Fatalf("stripes=%d seed=%d op %d: pop mismatch ref (%v,%v) striped (%v,%v)",
							stripes, seed, op, rt, rok, gt, gok)
					}
				case 3: // remove arbitrary id
					id := rng.Intn(idSpace)
					if ref.remove(id) != st.Remove(id) {
						t.Fatalf("stripes=%d seed=%d op %d: remove(%d) mismatch", stripes, seed, op, id)
					}
				case 4: // batched push of fresh tuples
					k := rng.Intn(6)
					batch := make([]Tuple, 0, k)
					for j := 0; j < k; j++ {
						batch = append(batch, Tuple{ID: rng.Intn(idSpace), Gain: rng.Float64() * 40, Iter: rng.Intn(4)})
					}
					for _, tu := range batch {
						ref.push(tu)
					}
					st.PushBatch(batch, nil)
				}
				if len(ref) != st.Len() {
					t.Fatalf("stripes=%d seed=%d op %d: len mismatch %d vs %d", stripes, seed, op, len(ref), st.Len())
				}
				if op%100 == 0 {
					id := rng.Intn(idSpace)
					if _, in := ref[id]; in != st.Contains(id) {
						t.Fatalf("stripes=%d seed=%d: contains(%d) mismatch", stripes, seed, id)
					}
					rg, rok := ref.gain(id)
					gg, gok := st.Gain(id)
					if rok != gok || rg != gg {
						t.Fatalf("stripes=%d seed=%d: gain(%d) mismatch (%v,%v) vs (%v,%v)", stripes, seed, id, rg, rok, gg, gok)
					}
				}
			}
			// Drain: the full residual pop sequences must agree too.
			for {
				rt, rok := ref.pop()
				gt, gok := st.Pop()
				if rok != gok || rt != gt {
					t.Fatalf("stripes=%d seed=%d drain: (%v,%v) vs (%v,%v)", stripes, seed, rt, rok, gt, gok)
				}
				if !rok {
					break
				}
			}
		}
	}
}

// TestStripedHeapifyMatchesPush verifies Floyd bulk construction pops
// the same sequence as element-wise pushes, serially and under a
// concurrent runner.
func TestStripedHeapifyMatchesPush(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(11))
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{ID: i, Gain: rng.Float64() * 10, Iter: -1}
	}
	rng.Shuffle(n, func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })

	pushed := NewStriped(n, 4, refStripeOf(1))
	for _, tu := range ts {
		pushed.Push(tu)
	}
	built := NewStriped(n, 4, refStripeOf(1))
	built.Heapify(ts, nil)
	concurrent := NewStriped(n, 4, refStripeOf(1))
	concurrent.Heapify(ts, goRunner)

	for {
		a, aok := pushed.Pop()
		b, bok := built.Pop()
		c, cok := concurrent.Pop()
		if aok != bok || aok != cok || a != b || a != c {
			t.Fatalf("pop divergence: push (%v,%v) heapify (%v,%v) concurrent (%v,%v)", a, aok, b, bok, c, cok)
		}
		if !aok {
			return
		}
	}
}

// TestStripedHeapifyNonEmptyPanics pins the construction contract.
func TestStripedHeapifyNonEmptyPanics(t *testing.T) {
	h := NewStriped(4, 2, nil)
	h.Push(Tuple{ID: 1, Gain: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Heapify on a non-empty heap did not panic")
		}
	}()
	h.Heapify([]Tuple{{ID: 2, Gain: 2}}, nil)
}

// goRunner runs the sharded fn calls on real goroutines, exercising the
// disjoint-stripe-ownership claim under the race detector.
func goRunner(n int, fn func(int)) {
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func(i int) { fn(i); done <- struct{}{} }(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

// TestStripedPushBatchConcurrent checks PushBatch under a real
// goroutine-per-stripe runner against the flat-map model.
func TestStripedPushBatchConcurrent(t *testing.T) {
	const idSpace = 300
	rng := rand.New(rand.NewSource(21))
	ref := flatModel{}
	st := NewStriped(idSpace, 8, refStripeOf(21))
	for round := 0; round < 60; round++ {
		batch := make([]Tuple, 0, 16)
		for j := 0; j < 16; j++ {
			id := rng.Intn(idSpace)
			if st.Contains(id) {
				continue
			}
			batch = append(batch, Tuple{ID: id, Gain: rng.Float64() * 30})
		}
		for _, tu := range batch {
			ref.push(tu)
		}
		st.PushBatch(batch, goRunner)
		for k := 0; k < 5; k++ {
			rt, rok := ref.pop()
			gt, gok := st.Pop()
			if rok != gok || rt != gt {
				t.Fatalf("round %d: pop mismatch (%v,%v) vs (%v,%v)", round, rt, rok, gt, gok)
			}
		}
	}
}

// TestStripedIDs verifies the diagnostic accessor against the model.
func TestStripedIDs(t *testing.T) {
	st := NewStriped(10, 3, nil)
	for _, id := range []int{7, 3, 5} {
		st.Push(Tuple{ID: id, Gain: float64(id)})
	}
	ids := st.IDs()
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
	if st.Stripes() != 3 {
		t.Fatalf("Stripes = %d", st.Stripes())
	}
}

// TestStripedSteadyStateAllocs pins the zero-allocation contract of the
// pop/push cycle that dominates the greedy steady state.
func TestStripedSteadyStateAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their diagnostic arguments")
	}
	const n = 256
	st := NewStriped(n, 4, refStripeOf(3))
	init := make([]Tuple, n)
	for i := range init {
		init[i] = Tuple{ID: i, Gain: float64(i % 37)}
	}
	st.Heapify(init, nil)
	batch := make([]Tuple, 0, 4)
	avg := testing.AllocsPerRun(200, func() {
		batch = batch[:0]
		for k := 0; k < 4; k++ {
			tu, _ := st.Pop()
			tu.Gain *= 0.99
			batch = append(batch, tu)
		}
		st.PushBatch(batch, nil)
	})
	if avg != 0 {
		t.Fatalf("steady-state pop/push allocates %v per cycle, want 0", avg)
	}
}
