package lazyheap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// loaded returns a heap over ids in [0, idSpace) bulk-loaded with ts.
func loaded(idSpace int, ts ...Tuple) *Heap {
	h := new(Heap)
	h.Reset(idSpace)
	h.Heapify(ts)
	return h
}

func TestEmpty(t *testing.T) {
	h := loaded(4)
	if h.Len() != 0 {
		t.Error("new heap should be empty")
	}
	if _, ok := h.Peek(); ok {
		t.Error("Peek on empty should report false")
	}
	if h.RefreshTop(1, 0) {
		t.Error("RefreshTop on empty should report false")
	}
	if h.Remove(1) {
		t.Error("Remove on empty should report false")
	}
	if h.Contains(1) {
		t.Error("Contains on empty should report false")
	}
	h = loaded(4, Tuple{ID: 1, Gain: 0.5})
	if h.Len() != 1 || !h.Contains(1) {
		t.Error("loading an empty heap failed")
	}
}

func TestPopOrder(t *testing.T) {
	gains := []float64{0.3, 0.9, 0.1, 0.7, 0.5}
	ts := make([]Tuple, len(gains))
	for i, g := range gains {
		ts[i] = Tuple{ID: i, Gain: g}
	}
	h := loaded(8, ts...)
	want := []float64{0.9, 0.7, 0.5, 0.3, 0.1}
	for i, w := range want {
		got, ok := take(h)
		if !ok {
			t.Fatalf("take %d: heap empty", i)
		}
		if got.Gain != w {
			t.Fatalf("take %d: gain %v, want %v", i, got.Gain, w)
		}
	}
	if h.Len() != 0 {
		t.Error("heap should be drained")
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	h := loaded(8, Tuple{ID: 7, Gain: 0.5}, Tuple{ID: 3, Gain: 0.5}, Tuple{ID: 5, Gain: 0.5})
	// A refresh that lands on an equal gain must not jump the id order.
	h.RefreshTop(0.5, 1)
	var ids []int
	for h.Len() > 0 {
		tu, _ := take(h)
		ids = append(ids, tu.ID)
	}
	if !sort.IntsAreSorted(ids) {
		t.Errorf("equal gains should come out in id order, got %v", ids)
	}
}

func TestRemove(t *testing.T) {
	var ts []Tuple
	for i := 0; i < 6; i++ {
		ts = append(ts, Tuple{ID: i, Gain: float64(i)})
	}
	h := loaded(8, ts...)
	if !h.Remove(3) {
		t.Fatal("Remove(3) should succeed")
	}
	if h.Remove(3) {
		t.Fatal("second Remove(3) should fail")
	}
	if h.Contains(3) {
		t.Fatal("heap still contains removed id")
	}
	var ids []int
	for h.Len() > 0 {
		tu, _ := take(h)
		ids = append(ids, tu.ID)
	}
	want := []int{5, 4, 2, 1, 0}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

// TestAgainstSort drives the heap with random operations and checks that
// the top is always the highest gain among the live entries.
func TestAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 5000
	ts := make([]Tuple, n)
	live := map[int]float64{}
	for i := range ts {
		ts[i] = Tuple{ID: i, Gain: rng.Float64()}
		live[i] = ts[i].Gain
	}
	h := loaded(n, ts...)
	for step := 0; h.Len() > 0; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // remove a random live id
			id := rng.Intn(n)
			if _, in := live[id]; h.Remove(id) != in {
				t.Fatalf("step %d: Remove(%d) disagrees with the model", step, id)
			}
			delete(live, id)
		case op < 6: // refresh the top downward
			top, _ := h.Peek()
			g := top.Gain * rng.Float64()
			h.RefreshTop(g, step)
			live[top.ID] = g
		default: // take the max and verify
			tu, _ := take(h)
			max := -1.0
			for _, g := range live {
				if g > max {
					max = g
				}
			}
			if tu.Gain != max {
				t.Fatalf("step %d: took gain %v, want max %v", step, tu.Gain, max)
			}
			delete(live, tu.ID)
		}
		if h.Len() != len(live) {
			t.Fatalf("len mismatch: heap %d, model %d", h.Len(), len(live))
		}
	}
}

func TestQuickHeapProperty(t *testing.T) {
	f := func(gains []float64) bool {
		ts := make([]Tuple, len(gains))
		for i, g := range gains {
			ts[i] = Tuple{ID: i, Gain: g}
		}
		h := loaded(len(gains), ts...)
		prev, first := 0.0, true
		for h.Len() > 0 {
			tu, _ := take(h)
			if !first && tu.Gain > prev {
				return false
			}
			prev, first = tu.Gain, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
