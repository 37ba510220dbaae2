package isos

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"testing"

	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sim"
)

// cancellingMetric cancels a context after the call counter crosses a
// threshold, but only while armed — so a test can let Start run to
// completion and then cancel a later navigation mid-selection.
type cancellingMetric struct {
	inner  sim.Metric
	calls  *atomic.Int64
	armed  *atomic.Bool
	cutoff int64
	cancel context.CancelFunc
}

func (c cancellingMetric) Sim(a, b *geodata.Object) float64 {
	if c.armed.Load() && c.calls.Add(1) == c.cutoff {
		c.cancel()
	}
	return c.inner.Sim(a, b)
}

// TestNavigationCancelKeepsSessionUsable cancels a ZoomIn from inside
// the metric and checks the documented error contract: the call returns
// ctx.Err(), the session keeps its pre-operation viewport, visible set
// and history, and the same navigation succeeds afterwards with a live
// context — producing exactly the selection an untouched session gets.
func TestNavigationCancelKeepsSessionUsable(t *testing.T) {
	store := testStore(t, 4000, 31)
	cfg := testConfig(t)

	var calls atomic.Int64
	var armed atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Metric = cancellingMetric{
		inner: cfg.Metric, calls: &calls, armed: &armed, cutoff: 200, cancel: cancel,
	}

	s, err := NewSession(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.25)
	if _, err := s.Start(context.Background(), region); err != nil {
		t.Fatal(err)
	}
	beforeVP := s.Viewport()
	beforeVis := s.Visible()

	inner := region.ScaleAroundCenter(0.5)
	armed.Store(true)
	_, err = s.ZoomIn(ctx, inner)
	armed.Store(false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ZoomIn err = %v, want context.Canceled", err)
	}
	if got := s.Viewport(); got != beforeVP {
		t.Fatalf("viewport changed by failed ZoomIn: %v, want %v", got, beforeVP)
	}
	if got := s.Visible(); len(got) != len(beforeVis) {
		t.Fatalf("visible set changed by failed ZoomIn: %d pins, want %d", len(got), len(beforeVis))
	}
	if s.CanBack() {
		t.Fatal("failed ZoomIn pushed a history entry")
	}

	// The session is still usable, and the retried operation matches a
	// session that never saw a cancellation.
	sel, err := s.ZoomIn(context.Background(), inner)
	if err != nil {
		t.Fatalf("ZoomIn after cancellation: %v", err)
	}
	ref, err := NewSession(store, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Start(context.Background(), region); err != nil {
		t.Fatal(err)
	}
	want, err := ref.ZoomIn(context.Background(), inner)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]int(nil), sel.Positions...)
	exp := append([]int(nil), want.Positions...)
	sort.Ints(got)
	sort.Ints(exp)
	if len(got) != len(exp) {
		t.Fatalf("retried selection has %d pins, reference %d", len(got), len(exp))
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Fatalf("retried selection differs from reference at %d: %d vs %d", i, got[i], exp[i])
		}
	}
}

// TestPrefetchPreCancelled checks that a cancelled context fails a
// synchronous Prefetch without corrupting the session.
func TestPrefetchPreCancelled(t *testing.T) {
	store := testStore(t, 1500, 32)
	s, err := NewSession(store, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.2)
	if _, err := s.Start(context.Background(), region); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Prefetch(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Prefetch err = %v, want context.Canceled", err)
	}
	// The session still navigates, just without prefetched bounds for
	// the interrupted operation.
	if _, err := s.ZoomIn(context.Background(), region.ScaleAroundCenter(0.5)); err != nil {
		t.Fatalf("ZoomIn after failed Prefetch: %v", err)
	}
}

// TestAsyncPrefetchDeterministicHit pins the background-prefetch happy
// path without sleeping: after Start the test waits on the job's done
// channel (white-box), so the next navigation deterministically adopts
// the finished bounds — and must select exactly what a cold session
// selects, per the async.go determinism argument.
func TestAsyncPrefetchDeterministicHit(t *testing.T) {
	store := testStore(t, 3000, 33)
	cfg := testConfig(t)
	cfg.AsyncPrefetch = true
	s, err := NewSession(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.2)
	if _, err := s.Start(context.Background(), region); err != nil {
		t.Fatal(err)
	}
	if s.job == nil {
		t.Fatal("AsyncPrefetch session has no background job after Start")
	}
	<-s.job.done

	inner := region.ScaleAroundCenter(0.5)
	sel, err := s.ZoomIn(context.Background(), inner)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Prefetched {
		t.Fatal("navigation after a finished background prefetch did not use its bounds")
	}

	cold, err := NewSession(store, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Start(context.Background(), region); err != nil {
		t.Fatal(err)
	}
	want, err := cold.ZoomIn(context.Background(), inner)
	if err != nil {
		t.Fatal(err)
	}
	if want.Prefetched {
		t.Fatal("cold session unexpectedly prefetched")
	}
	got := append([]int(nil), sel.Positions...)
	exp := append([]int(nil), want.Positions...)
	sort.Ints(got)
	sort.Ints(exp)
	if len(got) != len(exp) {
		t.Fatalf("async-prefetched selection has %d pins, cold %d", len(got), len(exp))
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Fatalf("async-prefetched selection differs from cold at %d: %d vs %d", i, got[i], exp[i])
		}
	}
}

// TestAsyncPrefetchNavigateImmediately races navigation against the
// background prefetch goroutine: every operation joins (cancelling an
// unfinished job), so rapid navigation must stay correct and free of
// data races (run under -race). A concurrent Close at the end exercises
// the only cross-goroutine entry point.
func TestAsyncPrefetchNavigateImmediately(t *testing.T) {
	store := testStore(t, 4000, 34)
	cfg := testConfig(t)
	cfg.K = 6
	cfg.AsyncPrefetch = true
	// An opaque metric keeps the background bound pass on the quadratic
	// rows, so a join has unfinished work to cancel.
	cfg.Metric = sim.Func(cfg.Metric.Sim)
	s, err := NewSession(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.3)
	if _, err := s.Start(context.Background(), region); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for step := 0; step < 12; step++ {
		var err error
		switch step % 3 {
		case 0:
			_, err = s.ZoomIn(ctx, s.Viewport().Region.ScaleAroundCenter(0.7))
		case 1:
			_, err = s.Pan(ctx, geo.Pt(0.01, -0.01))
		default:
			_, err = s.ZoomOut(ctx, s.Viewport().Region.ScaleAroundCenter(1.4))
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// Close from another goroutine while a background job may be in
	// flight, then keep navigating: a closed session must still work, it
	// just stops gaining background bounds.
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Close()
	}()
	<-done
	if _, err := s.Pan(ctx, geo.Pt(-0.01, 0.01)); err != nil {
		t.Fatalf("Pan after Close: %v", err)
	}
	if s.job != nil {
		<-s.job.done
	}
	sel, err := s.Pan(ctx, geo.Pt(0.01, 0))
	if err != nil {
		t.Fatalf("second Pan after Close: %v", err)
	}
	if sel.Prefetched {
		t.Fatal("closed session adopted background prefetch bounds")
	}
}

// TestAsyncPrefetchConfigValidated double-checks the config path: the
// engine knob round-trips through isos.Config's embedded engine.Config.
func TestAsyncPrefetchConfigValidated(t *testing.T) {
	cfg := Config{Config: engine.Config{K: 5, ThetaFrac: 0.02, Metric: sim.Cosine{}, AsyncPrefetch: true}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !cfg.AsyncPrefetch {
		t.Fatal("promoted AsyncPrefetch not readable")
	}
}
