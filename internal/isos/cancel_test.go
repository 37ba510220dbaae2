package isos

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

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

// TestAsyncPrefetchFieldIgnored pins the deprecation of
// engine.Config.AsyncPrefetch: a session with the field set starts no
// background work, so once any goroutine Start might have left has had
// time to finish, the next navigation still finds no bounds.
func TestAsyncPrefetchFieldIgnored(t *testing.T) {
	store := testStore(t, 3000, 33)
	cfg := testConfig(t)
	cfg.AsyncPrefetch = true
	s, err := NewSession(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.2)
	before := runtime.NumGoroutine()
	if _, err := s.Start(context.Background(), region); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10s after Start, %d before it", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
	sel, err := s.ZoomIn(context.Background(), region.ScaleAroundCenter(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Prefetched {
		t.Fatal("a session with AsyncPrefetch set found bounds nobody asked for")
	}
}
