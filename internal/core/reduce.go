// Fill a row, reduce it once. Algorithm 1 and Lemmas 5.1–5.3 consume
// Sim in a single shape — one object c against a run of objects i — so
// the evaluator separates the two halves of every pass: sim.Rows writes
// the run's similarities into a stack buffer (the only metric-specific
// code), and the functions below fold that buffer into the aggregation
// state or a partial gain. There are two reductions, absorb and
// marginal gain under the max of Equation 1, each over a chunk whose
// buffer lines up with pre-sliced columns. Every metric, built-in or
// custom, runs these two loops — and, where a run keeps
// residual-support lists (residual.go), the marginal loop's recording
// twin.
//
// The buffer is evalChunk = sim.RowBlock = 256 float64s: one reduction
// chunk, so chunk boundaries (and with them the floating-point
// summation order) stay a function of the object count alone, and small
// enough — 2 KiB — to live on the stack of the pass that fills it.
//
// Bitwise contract: buffer entries are the bits m.Sim returns, and each
// loop accumulates in index order, so a chunk partial is the same float
// whichever pass computes it. The loops rely on best[i] >= 0, which
// holds because the state starts at +0.0 and similarities are
// non-negative.
package core

// absorbMax raises the chunk's aggregation state to s where s exceeds
// it.
//
//geolint:hotpath
func absorbMax(best, s []float64) {
	best = best[:len(s)]
	for i, v := range s {
		if v > best[i] {
			best[i] = v
		}
	}
}

// marginalMax returns the chunk partial Σ ω_i·max(0, s_i − best_i).
//
//geolint:hotpath
func marginalMax(w, best, s []float64) float64 {
	w, best = w[:len(s)], best[:len(s)]
	var part float64
	for i, v := range s {
		if v > best[i] {
			part += w[i] * (v - best[i])
		}
	}
	return part
}

// marginalMaxRecord is marginalMax that also records the chunk's
// residual support — the objects whose term was added — as (i, s_i)
// pairs at the front of at and val, and returns how many (residual.go).
// The partial is the same float: same terms, same order.
//
//geolint:hotpath
func marginalMaxRecord(w, best, s []float64, at []uint8, val []float64) (part float64, n int) {
	w, best = w[:len(s)], best[:len(s)]
	at, val = at[:len(s)], val[:len(s)]
	for i, v := range s {
		if v > best[i] {
			part += w[i] * (v - best[i])
			at[n], val[n] = uint8(i), v
			n++
		}
	}
	return part, n
}
