package lazyheap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// flat returns a heap over ids in [0, idSpace).
func flat(idSpace int) *Heap { return New(idSpace) }

func TestEmpty(t *testing.T) {
	h := flat(4)
	if h.Len() != 0 {
		t.Error("new heap should be empty")
	}
	if _, ok := h.Peek(); ok {
		t.Error("Peek on empty should report false")
	}
	if _, ok := h.Pop(); ok {
		t.Error("Pop on empty should report false")
	}
	if h.Remove(1) {
		t.Error("Remove on empty should report false")
	}
	if h.Contains(1) {
		t.Error("Contains on empty should report false")
	}
	h.Push(Tuple{ID: 1, Gain: 0.5})
	if h.Len() != 1 || !h.Contains(1) {
		t.Error("push into empty heap failed")
	}
}

func TestPopOrder(t *testing.T) {
	h := flat(8)
	gains := []float64{0.3, 0.9, 0.1, 0.7, 0.5}
	for i, g := range gains {
		h.Push(Tuple{ID: i, Gain: g})
	}
	want := []float64{0.9, 0.7, 0.5, 0.3, 0.1}
	for i, w := range want {
		got, ok := h.Pop()
		if !ok {
			t.Fatalf("pop %d: heap empty", i)
		}
		if got.Gain != w {
			t.Fatalf("pop %d: gain %v, want %v", i, got.Gain, w)
		}
	}
	if h.Len() != 0 {
		t.Error("heap should be drained")
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	h := flat(8)
	h.Push(Tuple{ID: 7, Gain: 0.5})
	h.Push(Tuple{ID: 3, Gain: 0.5})
	h.Push(Tuple{ID: 5, Gain: 0.5})
	var ids []int
	for h.Len() > 0 {
		tu, _ := h.Pop()
		ids = append(ids, tu.ID)
	}
	if !sort.IntsAreSorted(ids) {
		t.Errorf("equal gains should pop in id order, got %v", ids)
	}
}

func TestPushUpdatesExisting(t *testing.T) {
	h := flat(8)
	h.Push(Tuple{ID: 1, Gain: 0.9, Iter: 0})
	h.Push(Tuple{ID: 2, Gain: 0.5, Iter: 0})
	// Re-push id 1 with lower gain, as lazy-forward does after
	// recomputation.
	h.Push(Tuple{ID: 1, Gain: 0.1, Iter: 3})
	if h.Len() != 2 {
		t.Fatalf("len = %d, want 2 (update, not duplicate)", h.Len())
	}
	top, _ := h.Pop()
	if top.ID != 2 {
		t.Errorf("top = %v, want id 2", top)
	}
	next, _ := h.Pop()
	if next.ID != 1 || next.Gain != 0.1 || next.Iter != 3 {
		t.Errorf("updated tuple = %+v", next)
	}
}

func TestRemove(t *testing.T) {
	h := flat(8)
	for i := 0; i < 6; i++ {
		h.Push(Tuple{ID: i, Gain: float64(i)})
	}
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
		tu, _ := h.Pop()
		ids = append(ids, tu.ID)
	}
	want := []int{5, 4, 2, 1, 0}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestGainLookup(t *testing.T) {
	h := flat(64)
	h.Push(Tuple{ID: 42, Gain: 0.25})
	if g, ok := h.Gain(42); !ok || g != 0.25 {
		t.Errorf("Gain(42) = %v, %v", g, ok)
	}
	if _, ok := h.Gain(1); ok {
		t.Error("Gain of absent id should report false")
	}
}

func TestIDs(t *testing.T) {
	h := flat(64)
	for i := 0; i < 4; i++ {
		h.Push(Tuple{ID: i * 10, Gain: float64(i)})
	}
	ids := h.IDs()
	sort.Ints(ids)
	want := []int{0, 10, 20, 30}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v", ids)
		}
	}
}

// TestAgainstSort drives the heap with random operations and checks that
// pops always come out in descending gain order among the live entries.
func TestAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const steps = 5000
	h := flat(steps) // at most one new id per step
	live := map[int]float64{}
	nextID := 0
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // push new
			g := rng.Float64()
			h.Push(Tuple{ID: nextID, Gain: g})
			live[nextID] = g
			nextID++
		case op < 8: // remove random live id
			for id := range live {
				h.Remove(id)
				delete(live, id)
				break
			}
		default: // pop max and verify
			tu, ok := h.Pop()
			if !ok {
				if len(live) != 0 {
					t.Fatalf("heap empty but %d live", len(live))
				}
				continue
			}
			max := -1.0
			for _, g := range live {
				if g > max {
					max = g
				}
			}
			if tu.Gain != max {
				t.Fatalf("pop gain %v, want max %v", tu.Gain, max)
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
		h := flat(len(gains))
		for i, g := range gains {
			h.Push(Tuple{ID: i, Gain: g})
		}
		prev, first := 0.0, true
		for h.Len() > 0 {
			tu, _ := h.Pop()
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
