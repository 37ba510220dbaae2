// Package core seeds deliberate violations of the floatorder analyzer
// (plus negative cases that must stay silent).
package core

// mapOrderSum is the seeded violation: a float64 reduction whose
// rounding depends on randomized map iteration order.
func mapOrderSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `float accumulation over map iteration order`
	}
	return sum
}

// sliceSum accumulates over a slice, whose order is fixed; silent.
func sliceSum(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum
}

// mapKeysOnly ranges over a map without accumulating floats; silent.
func mapKeysOnly(m map[string]float64) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// perKey writes per-element inside a map range; deterministic and
// silent.
func perKey(out []float64, m map[int]float64) {
	for k, v := range m {
		out[k] += v
	}
}

// suppressed shows the escape hatch.
func suppressed(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v //geolint:floatorder
	}
	return sum
}
