// The parallel evaluation engine: every O(|O|) pass of the greedy
// algorithm — absorbing a pick into the aggregation state, evaluating a
// candidate's marginal gain, initializing the heap, computing the final
// score — runs on the evaluator's worker pool. Two sharding shapes are
// used: loops over the objects split into fixed evalChunk-sized chunks
// (absorb, marginal, score), and loops over candidates hand one
// candidate to each worker (exact heap initialization — skipped when
// the metric's row sums are linear and the run seeds its heap with
// bounds instead, see runLazy — and batched lazy re-evaluation). Both
// produce bitwise-identical results for every pool
// size because all floating-point reductions accumulate per-chunk
// partials and combine them in chunk order.
//
// Pass parameters travel through e.op and the loop bodies are method
// values bound once per evaluator, so the steady state allocates
// nothing per pass; every chunk body fills one row of similarities and
// hands it to a reduction of reduce.go.
package core

// absorb updates the per-object aggregation state after adding object
// sel to the selection. Writes are per-object, so chunks are
// independent.
func (e *evaluator) absorb(best []float64, sel int) {
	e.op.best, e.op.sel = best, sel
	e.run(e.nChunks, e.absorbChunkFn)
}

// absorbChunkTask is the absorb loop body for one chunk.
//
//geolint:hotpath
func (e *evaluator) absorbChunkTask(chunk int) {
	lo, hi := chunkBounds(chunk, len(e.objs))
	var buf [evalChunk]float64
	s := buf[:hi-lo]
	e.rows.Fill(s, lo, hi, e.op.sel)
	if e.sumAgg() {
		absorbSum(e.op.best[lo:hi], s)
	} else {
		absorbMax(e.op.best[lo:hi], s)
	}
}

// marginalChunk accumulates one chunk's contribution to the
// unnormalized marginal gain of candidate c: Σ ω_i·(Sim(o_i, S∪{c}) −
// Sim(o_i, S)) restricted to the chunk, which for AggMax is
// Σ ω·max(0, Sim(o_i, o_c) − best[i]).
//
//geolint:hotpath
func (e *evaluator) marginalChunk(best []float64, c, chunk int) float64 {
	lo, hi := chunkBounds(chunk, len(e.objs))
	var buf [evalChunk]float64
	s := buf[:hi-lo]
	e.rows.Fill(s, lo, hi, c)
	if e.sumAgg() {
		return marginalSum(e.w[lo:hi], s)
	}
	return marginalMax(e.w[lo:hi], best[lo:hi], s)
}

// marginalChunkTask shards one candidate's gain across the pool.
//
//geolint:hotpath
func (e *evaluator) marginalChunkTask(chunk int) {
	e.partials[chunk] = e.marginalChunk(e.op.best, e.op.c, chunk)
}

// marginal returns the unnormalized marginal gain of candidate c,
// sharding the objects across the pool. Only the orchestrating
// goroutine may call it (it reuses e.partials).
func (e *evaluator) marginal(best []float64, c int) float64 {
	if e.nChunks == 0 {
		return 0
	}
	e.op.best, e.op.c = best, c
	e.run(e.nChunks, e.marginalChunkFn)
	var gain float64
	for _, p := range e.partials {
		gain += p
	}
	return gain
}

// marginalLocal computes the same value as marginal entirely on the
// calling goroutine — the identical chunk order makes it bitwise equal
// — for use inside worker tasks that own one candidate each. Worker
// tasks own a full O(|O|) row, so cancellation is probed at chunk
// boundaries here too; the bailed-out value is garbage, which is fine
// because the orchestrator discards all outputs once e.fail() reports
// the cancellation.
func (e *evaluator) marginalLocal(best []float64, c int) float64 {
	var gain float64
	for chunk := 0; chunk < e.nChunks; chunk++ {
		if e.cancelled() {
			return 0
		}
		gain += e.marginalChunk(best, c, chunk)
	}
	return gain
}

// batchTask evaluates one candidate of the current batch.
//
//geolint:hotpath
func (e *evaluator) batchTask(k int) {
	e.op.out[k] = e.marginalLocal(e.op.best, e.op.cs[k])
}

// marginalBatch evaluates many candidates concurrently, one candidate
// per worker task; the result's k-th entry is the gain of cs[k]. It
// powers the exact O(|O|·|G|) heap initialization, for metrics that
// need one, and the batched lazy re-evaluation of stale heap tops.
// dst is an optional scratch buffer reused across iterations (arena
// discipline: the steady state passes the same buffer every time and
// never allocates); the filled slice is returned.
//
//geolint:hotpath
func (e *evaluator) marginalBatch(dst, best []float64, cs []int) []float64 {
	if cap(dst) < len(cs) {
		// Grow-once fallback: the steady state passes an adequate arena
		// buffer and never reaches this line (AllocsPerRun-guarded).
		dst = make([]float64, len(cs)) //geolint:coldpath
	}
	out := dst[:len(cs)]
	if len(cs) == 1 {
		// A lone candidate still gets the chunk-sharded path.
		out[0] = e.marginal(best, cs[0])
		return out
	}
	e.op.best, e.op.cs, e.op.out = best, cs, out
	e.run(len(cs), e.batchFn)
	return out
}

// scoreChunkTask accumulates one chunk of the final weighted score.
//
//geolint:hotpath
func (e *evaluator) scoreChunkTask(chunk int) {
	lo, hi := chunkBounds(chunk, len(e.objs))
	w, best, div := e.w, e.op.best, e.op.div
	var part float64
	for i := lo; i < hi; i++ {
		part += w[i] * best[i] / div
	}
	e.partials[chunk] = part
}

// score computes the normalized representative score from the
// aggregation state (Equation 2). Only the orchestrating goroutine may
// call it.
func (e *evaluator) score(best []float64, nSelected int) float64 {
	n := len(e.objs)
	if n == 0 {
		return 0
	}
	div := 1.0
	if e.agg == AggAvg && nSelected > 0 {
		div = float64(nSelected)
	}
	e.op.best, e.op.div = best, div
	e.run(e.nChunks, e.scoreChunkFn)
	var total float64
	for _, p := range e.partials {
		total += p
	}
	return total / float64(n)
}
