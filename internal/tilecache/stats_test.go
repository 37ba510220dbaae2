package tilecache

import (
	"slices"
	"testing"
	"time"
)

// TestHistogramListsEveryBucket: a histogram exports all of its
// buckets, empty ones included, under one fixed bound per bounded
// bucket, whatever it observed; an observation past the last bound
// lands in the one unbounded bucket that follows it.
func TestHistogramListsEveryBucket(t *testing.T) {
	var empty, h histogram
	for _, d := range []time.Duration{0, histBase, histBase + 1, time.Millisecond, time.Hour} {
		h.observe(d)
	}
	e, s := empty.snapshot(), h.snapshot()
	if len(s.Buckets) != histBuckets || len(s.UpperNs) != histBuckets-1 {
		t.Fatalf("%d buckets under %d bounds, want %d under %d", len(s.Buckets), len(s.UpperNs), histBuckets, histBuckets-1)
	}
	if !slices.Equal(e.UpperNs, s.UpperNs) || len(e.Buckets) != len(s.Buckets) {
		t.Fatalf("bounds %v empty, %v after observing", e.UpperNs, s.UpperNs)
	}
	for i, b := range s.UpperNs {
		if want := uint64(histBase) << i; b != want {
			t.Fatalf("bound %d is %d, want %d", i, b, want)
		}
	}
	want := make([]uint64, histBuckets)
	want[0] = 2             // 0 and histBase itself
	want[1] = 1             // just past it
	want[13] = 1            // 1 ms lies in (128<<12, 128<<13] ns
	want[histBuckets-1] = 1 // an hour: past every bound
	if !slices.Equal(s.Buckets, want) || s.Count != 5 {
		t.Fatalf("buckets %v (count %d), want %v (count 5)", s.Buckets, s.Count, want)
	}
}
