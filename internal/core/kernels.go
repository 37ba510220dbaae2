package core

import (
	"context"

	"geosel/internal/geodata"
	"geosel/internal/parallel"
	"geosel/internal/sim"
)

// evalChunk is the number of objects per reduction chunk, and the size
// of the stack buffer one sim.Rows call fills. Chunk
// boundaries depend only on the object count — never on the worker
// count — which is what makes every reduction bitwise deterministic
// across Parallelism settings: partial sums are always accumulated
// within [lo, hi) chunks and combined in chunk order. The size is small
// enough that instances of a few thousand objects still split into
// enough chunks to keep a many-core pool busy, and large enough that
// the per-chunk scheduling cost (one atomic fetch-add) is noise next to
// the hundreds of similarity evaluations inside.
const evalChunk = sim.RowBlock

// serialCutoff is the object count below which Selector.Run skips the
// worker pool entirely: a single chunk cannot be sharded, and for tiny
// instances the pool's channel round-trips would dominate the work.
// Results are unaffected — the reduction order is fixed either way.
const serialCutoff = 2 * evalChunk

// evaluator is the parallel marginal-gain engine behind Selector.Run,
// Score and Representatives: the metric compiled once per run into
// sim.Rows, the weight column extracted once, and a worker pool that
// shards every loop over the objects into fixed chunks.
//
// The steady-state greedy iteration runs allocation-free: all per-pass
// parameters travel through the op scratch struct, and the loop bodies
// handed to the pool are method values bound once at construction —
// never per-pass closures.
type evaluator struct {
	objs []geodata.Object
	// w is the extracted weight column ω (the paper's mass), indexed
	// like objs.
	w []float64
	// rows fills Sim(o_i, o_c) for a run of objects i against one c; the
	// reductions of reduce.go consume what it writes.
	rows *sim.Rows
	agg  Agg
	pool *parallel.Pool
	// ctx cancels the run; done caches ctx.Done() so the per-chunk
	// cancellation probe in worker loops is one channel poll.
	ctx  context.Context
	done <-chan struct{}
	// err records the first pool-run failure (always a context error).
	// Only the orchestrating goroutine reads or writes it; once set, the
	// aggregation state is garbage and the run must abort.
	err error
	// nChunks = ceil(len(objs)/evalChunk).
	nChunks int
	// partials holds one partial sum per chunk; reused by the
	// single-orchestrator reductions (marginal, score).
	partials []float64

	// op carries the parameters of the pass currently running on the
	// pool. Fields are written by the orchestrator before e.run and are
	// read-only to workers for the duration of the pass.
	op opState
	// Pre-bound loop bodies, created once so the steady state never
	// allocates a closure per pass.
	absorbChunkFn   func(int)
	marginalChunkFn func(int)
	batchFn         func(int)
	scoreChunkFn    func(int)
}

// opState is the per-pass parameter block of the evaluator: one
// mutable scratch area instead of per-pass closure captures.
type opState struct {
	best []float64
	sel  int
	c    int
	cs   []int
	out  []float64
	div  float64
}

// newEvaluator compiles the metric into rows and binds the pool. A nil
// pool is valid and runs everything serially; a nil ctx never cancels.
func newEvaluator(ctx context.Context, objs []geodata.Object, m sim.Metric, agg Agg, pool *parallel.Pool) *evaluator {
	w := make([]float64, len(objs))
	for i := range objs {
		w[i] = objs[i].Weight
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	nChunks := (len(objs) + evalChunk - 1) / evalChunk
	e := &evaluator{
		objs:     objs,
		w:        w,
		rows:     sim.NewRows(m, objs),
		agg:      agg,
		pool:     pool,
		ctx:      ctx,
		done:     done,
		nChunks:  nChunks,
		partials: make([]float64, nChunks),
	}
	e.absorbChunkFn = e.absorbChunkTask
	e.marginalChunkFn = e.marginalChunkTask
	e.batchFn = e.batchTask
	e.scoreChunkFn = e.scoreChunkTask
	return e
}

// run executes fn over [0, n) on the pool, latching the first context
// error into e.err. Once a run has failed, subsequent runs are no-ops —
// callers check e.fail() at their next synchronization point instead of
// threading errors through every pass.
func (e *evaluator) run(n int, fn func(int)) {
	if e.err != nil {
		return
	}
	if err := e.pool.Run(e.ctx, n, fn); err != nil {
		e.err = err
	}
}

// fail reports the latched context error, if any.
func (e *evaluator) fail() error {
	return e.err
}

// cancelled polls the run's cancellation signal. Safe from worker
// goroutines (unlike e.err, which is orchestrator-only state).
func (e *evaluator) cancelled() bool {
	if e.done == nil {
		return false
	}
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// sumAgg reports whether the aggregation accumulates sums (AggSum and
// AggAvg) rather than maxima.
func (e *evaluator) sumAgg() bool {
	return e.agg == AggSum || e.agg == AggAvg
}

// chunkBounds returns the half-open object range of a chunk.
func chunkBounds(chunk, n int) (lo, hi int) {
	lo = chunk * evalChunk
	hi = lo + evalChunk
	if hi > n {
		hi = n
	}
	return lo, hi
}
