//go:build geoselcheck

package lazyheap

import (
	"strings"
	"testing"
)

// expectPanic runs f and asserts it panics with a geoselcheck message
// containing substr.
func expectPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "geoselcheck: ") || !strings.Contains(msg, substr) {
			t.Fatalf("expected a geoselcheck panic containing %q, got %v", substr, r)
		}
	}()
	f()
}

// TestCheckTakenFiresOnBrokenOrder breaks a heap's order in place — a
// leaf raised above the root without a sift, as a faulty sift loop
// would leave it — and takes the top the way the greedy does: the
// pop-order contract must catch the leaf surfacing above what was
// taken. Taking a top without removing it must be caught too.
func TestCheckTakenFiresOnBrokenOrder(t *testing.T) {
	ts := make([]Tuple, 8)
	for i := range ts {
		ts[i] = Tuple{ID: i, Gain: float64(i)}
	}
	h := loaded(len(ts), ts...)
	top, _ := h.Peek()
	h.entries[len(h.entries)-1].Gain = top.Gain + 1
	// Remove moves the last entry to the root, and a sift down from
	// there leaves the broken leaf on top.
	h.Remove(top.ID)
	expectPanic(t, "does not dominate the new top", func() { h.CheckTaken(top) })

	h = loaded(len(ts), ts...)
	top, _ = h.Peek()
	expectPanic(t, "still present", func() { h.CheckTaken(top) })

	// An intact heap passes.
	h = loaded(len(ts), ts...)
	for h.Len() > 0 {
		take(h)
	}
}
