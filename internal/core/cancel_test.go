package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"geosel/internal/engine"
	"geosel/internal/geodata"
	"geosel/internal/sim"
)

// rowPoll is the generic sim.Rows kind's poll interval: a row of
// metric calls probes the context every rowPoll pairs, and the
// evaluator probes it again once the row returns.
const rowPoll = 256

// countingMetric wraps a metric with an atomic call counter and an
// optional trigger that fires once after n calls.
type countingMetric struct {
	calls   *atomic.Int64
	trigger func(calls int64)
	inner   sim.Metric
}

func (c countingMetric) Sim(a, b *geodata.Object) float64 {
	n := c.calls.Add(1)
	if c.trigger != nil {
		c.trigger(n)
	}
	return c.inner.Sim(a, b)
}

// TestRunCancelledMidway cancels the context from inside a kernel
// evaluation and requires (a) Run returns ctx.Err(), and (b) the run
// stopped early — far fewer metric calls than an uncancelled run.
func TestRunCancelledMidway(t *testing.T) {
	objs := testObjects(2000, 1234)
	base := sim.Func(func(a, b *geodata.Object) float64 {
		d := a.Loc.Dist(b.Loc)
		return 1 / (1 + 4*d)
	})

	// Reference: total metric calls without cancellation.
	var full atomic.Int64
	ref := &Selector{
		Config:  engine.Config{K: 20, Theta: 0.02, Metric: countingMetric{calls: &full, inner: base}},
		Objects: objs,
	}
	if _, err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	cutoff := full.Load() / 10
	m := countingMetric{calls: &calls, inner: base, trigger: func(n int64) {
		if n == cutoff {
			cancel()
		}
	}}
	sel := &Selector{
		Config:  engine.Config{K: 20, Theta: 0.02, Metric: m},
		Objects: objs,
	}
	res, err := sel.Run(ctx)
	if res != nil {
		t.Fatal("cancelled Run returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation latency is bounded by one poll interval of the row,
	// so the cancelled run stops within rowPoll metric calls of the
	// cutoff.
	if got := calls.Load(); got > cutoff+rowPoll {
		t.Fatalf("cancelled at call %d, the run made %d of %d metric calls — did not stop within one poll interval",
			cutoff, got, full.Load())
	}
}

// TestRunPreCancelled covers the fast path: a context cancelled before
// Run starts must fail without evaluating the metric at all (beyond at
// most one poll interval of a row).
func TestRunPreCancelled(t *testing.T) {
	objs := testObjects(800, 4321)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	sel := &Selector{
		Config: engine.Config{K: 10, Theta: 0.02,
			Metric: countingMetric{calls: &calls, inner: sim.Cosine{}}},
		Objects: objs,
	}
	if _, err := sel.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got > rowPoll {
		t.Fatalf("pre-cancelled Run made %d metric calls", got)
	}
}

// TestRunDeadline exercises deadline-based cancellation end to end: the
// error must be context.DeadlineExceeded, and the call must return
// promptly rather than finishing the selection.
func TestRunDeadline(t *testing.T) {
	objs := testObjects(3000, 99)
	slow := sim.Func(func(a, b *geodata.Object) float64 {
		time.Sleep(time.Microsecond)
		return 1 / (1 + a.Loc.Dist(b.Loc))
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	sel := &Selector{
		Config:  engine.Config{K: 50, Theta: 0.01, Metric: slow},
		Objects: objs,
	}
	start := time.Now()
	_, err := sel.Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline-cancelled Run took %v", elapsed)
	}
}

// TestConfigValidationThroughSelector checks that the engine.Config
// validation runs on Selector.Run and its errors do not consume the
// Selector.
func TestConfigValidationThroughSelector(t *testing.T) {
	objs := testObjects(10, 7)
	bad := &Selector{
		Config:  engine.Config{K: 3, Theta: -1, Metric: sim.Cosine{}},
		Objects: objs,
	}
	if _, err := bad.Run(context.Background()); err == nil {
		t.Fatal("Theta out of range should fail validation")
	}
	bad.Theta = 0
	if _, err := bad.Run(context.Background()); err != nil {
		t.Fatalf("Run after fixing validation error: %v", err)
	}
}
