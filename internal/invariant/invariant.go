//go:build geoselcheck

// Runtime assertions for the paper's fragile invariants, active only
// under the geoselcheck build tag:
//
//	go test -tags geoselcheck ./...
//
// Release builds compile the no-op stubs in invariant_off.go instead,
// and every call site is gated on the Enabled constant, so the checks
// cost nothing when the tag is absent — the branch is dead code the
// compiler deletes. Violations panic with a "geoselcheck:" message:
// these are programming errors in the library (a broken lemma, a
// nondeterministic reduction), never user errors, so an assertion
// failure must stop the test run cold. The panics live behind the build
// tag, which is why the nopanic analyzer does not see them.
package invariant

import (
	"fmt"
	"math"
)

// Enabled reports whether assertions are compiled in. Gate every call
// site on it so release builds pay nothing:
//
//	if invariant.Enabled {
//		invariant.UpperBound(exact, bound, "lazy refresh")
//	}
const Enabled = true

// tol returns the absolute tolerance used when comparing two floats
// that were produced by different (but individually fixed-order)
// reductions: proportional to the magnitudes involved.
func tol(a, b float64) float64 {
	m := 1.0
	if x := abs(a); x > m {
		m = x
	}
	if x := abs(b); x > m {
		m = x
	}
	return 1e-9 * m
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Assertf panics with the formatted message when cond is false.
func Assertf(cond bool, format string, args ...any) {
	if !cond {
		panic("geoselcheck: " + fmt.Sprintf(format, args...))
	}
}

// UpperBound asserts exact <= bound (within floating-point tolerance):
// the submodularity guarantee of Lemma 4.1 — a stale lazy-forward heap
// entry upper-bounds the current marginal gain — and the prefetch
// guarantees of Lemmas 5.1–5.3 — an envelope bound dominates the exact
// in-region gain.
func UpperBound(exact, bound float64, what string) {
	if exact > bound+tol(exact, bound) {
		panic(fmt.Sprintf("geoselcheck: %s: exact value %v exceeds its recorded upper bound %v", what, exact, bound))
	}
}

// NonIncreasing asserts the sequence never rises (within tolerance):
// the greedy's marginal gains are monotone non-increasing across
// iterations by submodularity.
func NonIncreasing(seq []float64, what string) {
	for i := 1; i < len(seq); i++ {
		if seq[i] > seq[i-1]+tol(seq[i], seq[i-1]) {
			panic(fmt.Sprintf("geoselcheck: %s: value %v at index %d rises above its predecessor %v", what, seq[i], i, seq[i-1]))
		}
	}
}

// PairwiseSeparated asserts every pair among k items is at distance
// >= theta — the visibility constraint of Definition 3.1 over the final
// selection.
func PairwiseSeparated(k int, dist func(i, j int) float64, theta float64, what string) {
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if d := dist(i, j); d < theta {
				panic(fmt.Sprintf("geoselcheck: %s: items %d and %d at distance %v violate theta %v", what, i, j, d, theta))
			}
		}
	}
}

// PackingBound asserts Lemma 4.3's packing argument on the selection:
// any circle of radius theta holds at most 7 selected objects. Since
// the selection is theta-separated, it suffices to check circles
// centered at each selected object.
func PackingBound(k int, dist func(i, j int) float64, theta float64, what string) {
	if theta <= 0 {
		return
	}
	for i := 0; i < k; i++ {
		count := 1 // the center itself
		for j := 0; j < k; j++ {
			if j != i && dist(i, j) < theta {
				count++
			}
		}
		if count > 7 {
			panic(fmt.Sprintf("geoselcheck: %s: %d selected objects inside the theta-circle of item %d (Lemma 4.3 allows 7)", what, count, i))
		}
	}
}

// ResidualGain asserts the residual-support contract on one marginal
// gain: walking a candidate's recorded support must return, bit for
// bit, what the dense pass returns against the same aggregation state —
// the walk adds the same terms in the same order into one accumulator
// that starts at +0.0.
func ResidualGain(walked, dense float64, what string) {
	if math.Float64bits(walked) != math.Float64bits(dense) {
		panic(fmt.Sprintf("geoselcheck: %s: walked gain %v differs bitwise from dense gain %v", what, walked, dense))
	}
}
