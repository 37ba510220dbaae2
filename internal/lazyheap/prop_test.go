package lazyheap

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// modelMax returns the tuple a correct heap must pop next: maximum gain,
// ties broken by smaller id. ok is false when the model is empty.
func modelMax(model map[int]Tuple) (Tuple, bool) {
	var best Tuple
	ok := false
	for _, tu := range model {
		if !ok || tu.Gain > best.Gain || (tu.Gain == best.Gain && tu.ID < best.ID) {
			best, ok = tu, true
		}
	}
	return best, ok
}

// flatModel is the flat-map reference the property tests hold Heap to:
// the live tuple per id, its maximum found by a scan (modelMax).
type flatModel map[int]Tuple

func (m flatModel) push(t Tuple) { m[t.ID] = t }

func (m flatModel) pop() (Tuple, bool) {
	t, ok := modelMax(m)
	delete(m, t.ID)
	return t, ok
}

// refreshTop replaces the maximum's gain and iteration, as
// Heap.RefreshTop does.
func (m flatModel) refreshTop(gain float64, iter int) bool {
	t, ok := modelMax(m)
	if ok {
		t.Gain, t.Iter = gain, iter
		m[t.ID] = t
	}
	return ok
}

func (m flatModel) remove(id int) bool {
	_, ok := m[id]
	delete(m, id)
	return ok
}

func (m flatModel) gain(id int) (float64, bool) {
	t, ok := m[id]
	return t.Gain, ok
}

// randomKey picks a uniformly random id from the model, deterministically
// given the rng (map iteration order must not leak into the test).
func randomKey(model map[int]Tuple, rng *rand.Rand) int {
	keys := make([]int, 0, len(model))
	for id := range model {
		keys = append(keys, id)
	}
	sort.Ints(keys)
	return keys[rng.Intn(len(keys))]
}

// TestRandomInterleavings drives the heap through random
// interleavings of push, replace, refresh of the top, pop and remove
// against a flat map model. It checks
// the two contracts the lazy-forward greedy depends on: pops follow the
// deterministic (gain desc, id asc) order, and a popped gain never
// exceeds the highest gain ever recorded for that id — the heap
// analogue of Lemma 4.1, where an entry refreshed downward (a stale
// upper bound re-evaluated) must never resurface above its bound.
func TestRandomInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const steps = 500
	for trial := 0; trial < 40; trial++ {
		// Ids stay below steps; the absent-id probe reaches 1000 past them.
		h := New(steps + 1001)
		model := make(map[int]Tuple)
		bound := make(map[int]float64) // highest gain ever pushed per id
		nextID := 0

		record := func(tu Tuple) {
			if b, ok := bound[tu.ID]; !ok || tu.Gain > b {
				bound[tu.ID] = tu.Gain
			}
		}
		// Quantized gains force ties so the id tiebreak is exercised.
		gain := func() float64 { return math.Round(rng.Float64()*8) / 2 }

		for step := 0; step < steps; step++ {
			switch r := rng.Intn(10); {
			case r < 4:
				tu := Tuple{ID: nextID, Gain: gain(), Iter: step}
				nextID++
				h.Push(tu)
				model[tu.ID] = tu
				record(tu)
			case r < 5 && len(model) > 0:
				// Refresh the top downward in place, as the greedy does
				// when it re-evaluates a stale top.
				top, _ := modelMax(model)
				g := top.Gain * rng.Float64()
				if !h.RefreshTop(g, step) {
					t.Fatalf("trial %d step %d: RefreshTop on a non-empty heap = false", trial, step)
				}
				flatModel(model).refreshTop(g, step)
			case r < 6 && len(model) > 0:
				// Refresh an existing entry downward, like a lazy
				// re-evaluation of a stale upper bound.
				id := randomKey(model, rng)
				tu := Tuple{ID: id, Gain: model[id].Gain * rng.Float64(), Iter: step}
				h.Push(tu)
				model[id] = tu
			case r < 8:
				got, ok := h.Pop()
				want, wantOK := modelMax(model)
				if ok != wantOK {
					t.Fatalf("trial %d step %d: Pop ok=%v, model says %v", trial, step, ok, wantOK)
				}
				if !ok {
					break
				}
				if got != want {
					t.Fatalf("trial %d step %d: Pop = %+v, model max %+v", trial, step, got, want)
				}
				if got.Gain > bound[got.ID] {
					t.Fatalf("trial %d step %d: popped gain %v exceeds recorded bound %v for id %d",
						trial, step, got.Gain, bound[got.ID], got.ID)
				}
				delete(model, got.ID)
			case len(model) > 0:
				id := randomKey(model, rng)
				if !h.Remove(id) {
					t.Fatalf("trial %d step %d: Remove(%d) = false for present id", trial, step, id)
				}
				delete(model, id)
			default:
				// Removing an id that was never inserted must be a no-op.
				if h.Remove(nextID + 1000) {
					t.Fatalf("trial %d step %d: Remove of absent id reported true", trial, step)
				}
			}
			if h.Len() != len(model) {
				t.Fatalf("trial %d step %d: Len = %d, model has %d", trial, step, h.Len(), len(model))
			}
			if len(model) > 0 {
				id := randomKey(model, rng)
				if g, ok := h.Gain(id); !ok || g != model[id].Gain {
					t.Fatalf("trial %d step %d: Gain(%d) = (%v, %v), model %v", trial, step, id, g, ok, model[id].Gain)
				}
			}
		}

		// Drain: the survivors must come out in (gain desc, id asc) order
		// and match the model exactly.
		prev, havePrev := Tuple{}, false
		for h.Len() > 0 {
			got, _ := h.Pop()
			want, _ := modelMax(model)
			if got != want {
				t.Fatalf("trial %d drain: Pop = %+v, model max %+v", trial, got, want)
			}
			if havePrev && (got.Gain > prev.Gain || (got.Gain == prev.Gain && got.ID < prev.ID)) {
				t.Fatalf("trial %d drain: %+v popped after %+v breaks the pop order", trial, got, prev)
			}
			prev, havePrev = got, true
			delete(model, got.ID)
		}
		if len(model) != 0 {
			t.Fatalf("trial %d drain: heap empty but model still has %d entries", trial, len(model))
		}
	}
}
