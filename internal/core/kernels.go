// The evaluation engine: every O(|O|) pass of the greedy algorithm —
// absorbing a pick into the aggregation state, evaluating a candidate's
// marginal gain, computing the final score — runs on the calling
// goroutine. A pass fills one whole row of similarities into the run's
// row buffer and hands it to a reduction of reduce.go; every
// floating-point reduction sums in index order into one accumulator
// that starts at +0.0, so a pass's bits are a function of the object
// order alone.
package core

import (
	"context"

	"geosel/internal/geodata"
	"geosel/internal/sim"
)

// evaluator is the marginal-gain engine behind Selector.Run and Score:
// the metric compiled once per run into sim.Rows and the weight column
// extracted once. A run's evaluator lives in its arena and is rebuilt
// in place by reset.
type evaluator struct {
	objs []geodata.Object
	// w is the extracted weight column ω (the paper's mass), indexed
	// like objs.
	w []float64
	// rows writes c's row, Sim(o_i, o_c) for every object i, into row;
	// the reductions of reduce.go consume it.
	rows sim.Rows
	row  []float64
	// ctx cancels the run; done caches ctx.Done() so a cancellation
	// probe is one channel poll.
	ctx  context.Context
	done <-chan struct{}
	// err latches the first context error a probe saw. Once
	// set, the aggregation state is garbage and the run must abort.
	err error
}

// newEvaluator compiles the metric into a new evaluator. A nil ctx
// never cancels.
func newEvaluator(ctx context.Context, objs []geodata.Object, m sim.Metric) *evaluator {
	e := new(evaluator)
	e.reset(ctx, objs, m)
	return e
}

// reset recompiles e for m over objs, keeping its columns' storage.
func (e *evaluator) reset(ctx context.Context, objs []geodata.Object, m sim.Metric) {
	e.objs = objs
	e.w = resize(e.w, len(objs))
	for i := range objs {
		e.w[i] = objs[i].Weight
	}
	e.rows.Reset(m, objs)
	e.row = resize(e.row, len(objs))
	e.ctx, e.done, e.err = ctx, nil, nil
	if ctx != nil {
		e.done = ctx.Done()
	}
}

// stop is the cancellation probe: it reports whether the run must
// stop, latching a context error into e.err the first time it sees one.
// Once a run has failed every pass is a no-op — callers check e.fail()
// at their next synchronization point instead of threading errors
// through every pass.
func (e *evaluator) stop() bool {
	if e.err != nil {
		return true
	}
	if e.done == nil {
		return false
	}
	select {
	case <-e.done:
		e.err = e.ctx.Err()
		return true
	default:
		return false
	}
}

// fail reports the latched context error, if any.
func (e *evaluator) fail() error {
	return e.err
}

// fill writes c's row into e.row, probing the context before and
// after: the generic kind returns early, with the row garbage, once the
// context is done. It reports false when the run must stop.
//
//geolint:hotpath
func (e *evaluator) fill(c int) bool {
	if e.stop() {
		return false
	}
	e.rows.Row(e.row, c, e.done)
	return !e.stop()
}

// absorb updates the per-object aggregation state after adding object
// sel to the selection.
//
//geolint:hotpath
func (e *evaluator) absorb(best []float64, sel int) {
	if e.fill(sel) {
		absorbMax(best, e.row)
	}
}

// marginal returns the unnormalized marginal gain of candidate c
// against the aggregation state best: Σ ω_i·(Sim(o_i, S∪{c}) −
// Sim(o_i, S)), which under the max of Equation 1 is
// Σ ω·max(0, Sim(o_i, o_c) − best[i]), summed in index order. It powers
// the exact O(|O|·|G|) heap initialization, for metrics that need one;
// on a cancelled run the value is garbage and e.fail() says so.
//
//geolint:hotpath
func (e *evaluator) marginal(best []float64, c int) float64 {
	if !e.fill(c) {
		return 0
	}
	return marginalMax(e.w, best, e.row)
}

// score computes the normalized representative score from the
// aggregation state (Equation 2).
func (e *evaluator) score(best []float64) float64 {
	n := len(e.objs)
	if n == 0 {
		return 0
	}
	w := e.w
	var total float64
	for i, b := range best[:len(w)] {
		total += w[i] * b
	}
	return total / float64(n)
}
