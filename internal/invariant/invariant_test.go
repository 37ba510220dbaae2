//go:build geoselcheck

package invariant

import (
	"math"
	"strings"
	"testing"
)

// expectPanic runs f and asserts it panics with a geoselcheck message
// containing substr.
func expectPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a geoselcheck panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "geoselcheck: ") || !strings.Contains(msg, substr) {
			t.Fatalf("expected a geoselcheck panic containing %q, got %v", substr, r)
		}
	}()
	f()
}

func TestAssertf(t *testing.T) {
	Assertf(true, "fine")
	expectPanic(t, "boom 7", func() { Assertf(false, "boom %d", 7) })
}

func TestUpperBound(t *testing.T) {
	UpperBound(1.0, 1.0, "equal")
	UpperBound(0.5, 1.0, "below")
	// A few ulps over the bound is reduction noise, not a violation.
	UpperBound(1.0+1e-12, 1.0, "noise")
	expectPanic(t, "exceeds its recorded upper bound", func() { UpperBound(1.1, 1.0, "over") })
}

func TestNonIncreasing(t *testing.T) {
	NonIncreasing(nil, "empty")
	NonIncreasing([]float64{3, 2, 2, 1}, "ok")
	NonIncreasing([]float64{1, 1 + 1e-13}, "noise")
	expectPanic(t, "rises above its predecessor", func() { NonIncreasing([]float64{1, 2}, "rise") })
}

func TestPairwiseSeparated(t *testing.T) {
	locs := []float64{0, 1, 2.5}
	dist := func(i, j int) float64 { return math.Abs(locs[i] - locs[j]) }
	PairwiseSeparated(len(locs), dist, 1.0, "ok")
	expectPanic(t, "violate theta", func() { PairwiseSeparated(len(locs), dist, 1.25, "close") })
}

func TestPackingBound(t *testing.T) {
	// 8 points all inside each other's theta-circle: impossible for a
	// theta-separated selection, and exactly what the bound rejects.
	n := 8
	tight := func(i, j int) float64 { return 0.1 }
	expectPanic(t, "Lemma 4.3", func() { PackingBound(n, tight, 1.0, "crowd") })
	// Separated points: fine.
	locs := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	dist := func(i, j int) float64 { return math.Abs(locs[i] - locs[j]) }
	PackingBound(len(locs), dist, 1.0, "line")
	// theta <= 0 disables the constraint entirely.
	PackingBound(n, tight, 0, "vacuous")
}

func TestResidualGain(t *testing.T) {
	ResidualGain(0, 0, "zero")
	ResidualGain(2.5, 2.5, "equal")
	// Bitwise, not within tolerance: one ulp apart is a reordered sum.
	expectPanic(t, "differs bitwise from dense gain", func() {
		ResidualGain(math.Nextafter(1, 2), 1, "one ulp")
	})
	expectPanic(t, "differs bitwise from dense gain", func() { ResidualGain(0, 0.25, "dropped term") })
}
