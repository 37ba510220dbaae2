// Fill a row, reduce it once. Algorithm 1 and Lemmas 5.1–5.3 consume
// Sim in a single shape — one object c against every object i — so the
// evaluator separates the two halves of every pass: sim.Rows writes c's
// whole row into the run's row buffer (the only metric-specific code),
// and the functions below fold it into the aggregation state or a gain.
// There are two reductions, absorb and marginal gain under the max of
// Equation 1, each over the whole row lined up with the weight and
// state columns. Every metric, built-in or custom, runs these two loops
// — and, where a run keeps residual-support lists (residual.go), the
// marginal loop's recording twin.
//
// Bitwise contract: each loop reads a row entry v as min(v, 1) — the
// upper half of the clamp that turns a Cosine row's dots into m.Sim,
// done in the one pass that already reads the row — and sums in index
// order into one accumulator that starts at +0.0, so a gain is the same
// float whichever pass computes it: the textbook's straight sum. The
// lower half needs no pass: the loops rely on best[i] >= 0, which holds
// because the state starts at +0.0 and only ever takes a v > best[i],
// so a negative or NaN v never counts, as its clamp to 0 (or NaN) would
// not. On any other metric the clamp is the identity: a Metric maps
// into [0, 1].
package core

// absorbMax raises the aggregation state to min(s_i, 1) where that
// exceeds it.
//
//geolint:hotpath
func absorbMax(best, s []float64) {
	best = best[:len(s)]
	for i, v := range s {
		if v = min(v, 1); v > best[i] {
			best[i] = v
		}
	}
}

// marginalMax returns Σ ω_i·max(0, min(s_i, 1) − best_i).
//
//geolint:hotpath
func marginalMax(w, best, s []float64) float64 {
	w, best = w[:len(s)], best[:len(s)]
	var gain float64
	for i, v := range s {
		if v = min(v, 1); v > best[i] {
			gain += w[i] * (v - best[i])
		}
	}
	return gain
}

// marginalMaxRecord is marginalMax that also records the residual
// support — the objects whose term was added — as (i, min(s_i, 1))
// pairs at the front of at and val, and returns how many (residual.go).
// The gain is the same float: same terms, same order.
//
//geolint:hotpath
func marginalMaxRecord(w, best, s []float64, at []int32, val []float64) (gain float64, n int) {
	w, best = w[:len(s)], best[:len(s)]
	at, val = at[:len(s)], val[:len(s)]
	for i, v := range s {
		if v = min(v, 1); v > best[i] {
			gain += w[i] * (v - best[i])
			at[n], val[n] = int32(i), v
			n++
		}
	}
	return gain, n
}
