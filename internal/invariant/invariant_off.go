//go:build !geoselcheck

// Release-build stubs: see invariant.go for the real assertions. With
// Enabled a compile-time false constant, every `if invariant.Enabled`
// call site is dead code and the library pays nothing.
package invariant

// Enabled reports whether assertions are compiled in.
const Enabled = false

// Assertf does nothing in release builds.
func Assertf(cond bool, format string, args ...any) {}

// UpperBound does nothing in release builds.
func UpperBound(exact, bound float64, what string) {}

// NonIncreasing does nothing in release builds.
func NonIncreasing(seq []float64, what string) {}

// PairwiseSeparated does nothing in release builds.
func PairwiseSeparated(k int, dist func(i, j int) float64, theta float64, what string) {}

// PackingBound does nothing in release builds.
func PackingBound(k int, dist func(i, j int) float64, theta float64, what string) {}

// ResidualGain does nothing in release builds.
func ResidualGain(walked, dense float64, what string) {}
