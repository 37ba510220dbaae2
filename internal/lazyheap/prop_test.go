package lazyheap

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// modelMax returns the tuple a correct heap must have on top: maximum
// gain, ties broken by smaller id. ok is false when the model is empty.
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

// load fills the model with ts, as Heapify fills the heap.
func (m flatModel) load(ts []Tuple) {
	for _, t := range ts {
		m[t.ID] = t
	}
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

// take is the greedy's selection step on a heap: take the top out with
// Remove, then drop each of conflicts still present (removeConflicts
// filters its grid hits by Contains the same way), then check the
// pop-order contract on what was taken.
func take(h *Heap, conflicts ...int) (Tuple, bool) {
	t, ok := h.Peek()
	if !ok {
		return t, false
	}
	h.Remove(t.ID)
	for _, id := range conflicts {
		if h.Contains(id) {
			h.Remove(id)
		}
	}
	h.CheckTaken(t)
	return t, true
}

// randomTuples returns n tuples with distinct ids drawn from
// [0, idSpace), in random order, their gains quantized to force ties.
func randomTuples(rng *rand.Rand, n, idSpace int) []Tuple {
	ids := rng.Perm(idSpace)[:n]
	ts := make([]Tuple, n)
	for i, id := range ids {
		ts[i] = Tuple{ID: id, Gain: math.Round(rng.Float64()*8) / 2, Iter: -1}
	}
	return ts
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

// TestRandomInterleavings drives the heap through random interleavings
// of the lazy-forward moves — refresh of a stale top, selection of the
// top with its conflicts, removal of arbitrary and absent ids — against
// a flat map model. It checks the two contracts the greedy depends on:
// the top follows the deterministic (gain desc, id asc) order, and a
// top's gain never exceeds the highest gain ever recorded for that id —
// the heap analogue of Lemma 4.1, where an entry refreshed downward (a
// stale upper bound re-evaluated) must never resurface above its bound.
func TestRandomInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, idSpace, steps = 300, 600, 500
	var h Heap
	for trial := 0; trial < 40; trial++ {
		// Ids stay below idSpace; the absent-id probe reaches past them.
		h.Reset(idSpace + 1)
		ts := randomTuples(rng, n, idSpace)
		model := flatModel{}
		model.load(ts)
		bound := make(map[int]float64) // highest gain ever recorded per id
		for _, tu := range ts {
			bound[tu.ID] = tu.Gain
		}
		h.Heapify(ts)

		for step := 0; step < steps; step++ {
			switch r := rng.Intn(10); {
			case r < 5 && len(model) > 0:
				// Refresh the top downward in place, as the greedy does
				// when it re-evaluates a stale top.
				top, _ := modelMax(model)
				g := top.Gain * rng.Float64()
				if !h.RefreshTop(g, step) {
					t.Fatalf("trial %d step %d: RefreshTop on a non-empty heap = false", trial, step)
				}
				model.refreshTop(g, step)
			case r < 8:
				var conflicts []int
				for j := rng.Intn(4); j > 0; j-- {
					conflicts = append(conflicts, rng.Intn(idSpace))
				}
				want, wantOK := modelMax(model)
				got, ok := take(&h, conflicts...)
				if ok != wantOK || got != want {
					t.Fatalf("trial %d step %d: took (%+v, %v), model max (%+v, %v)", trial, step, got, ok, want, wantOK)
				}
				if !ok {
					break
				}
				if got.Gain > bound[got.ID] {
					t.Fatalf("trial %d step %d: taken gain %v exceeds recorded bound %v for id %d",
						trial, step, got.Gain, bound[got.ID], got.ID)
				}
				delete(model, got.ID)
				for _, id := range conflicts {
					delete(model, id)
				}
			case len(model) > 0:
				id := randomKey(model, rng)
				if !h.Remove(id) {
					t.Fatalf("trial %d step %d: Remove(%d) = false for present id", trial, step, id)
				}
				delete(model, id)
			default:
				// Removing an id that was never loaded must be a no-op.
				if h.Remove(idSpace) || h.Contains(idSpace) {
					t.Fatalf("trial %d step %d: absent id reported present", trial, step)
				}
			}
			if h.Len() != len(model) {
				t.Fatalf("trial %d step %d: Len = %d, model has %d", trial, step, h.Len(), len(model))
			}
		}

		// Drain: the survivors must come out in (gain desc, id asc) order
		// and match the model exactly.
		prev, havePrev := Tuple{}, false
		for h.Len() > 0 {
			want, _ := modelMax(model)
			got, _ := take(&h)
			if got != want {
				t.Fatalf("trial %d drain: took %+v, model max %+v", trial, got, want)
			}
			if havePrev && (got.Gain > prev.Gain || (got.Gain == prev.Gain && got.ID < prev.ID)) {
				t.Fatalf("trial %d drain: %+v taken after %+v breaks the pop order", trial, got, prev)
			}
			prev, havePrev = got, true
			delete(model, got.ID)
		}
		if len(model) != 0 {
			t.Fatalf("trial %d drain: heap empty but model still has %d entries", trial, len(model))
		}
	}
}
