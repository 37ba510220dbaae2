package tilecache

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// TestAppendSelectJSONMatchesSelect: the fragment-emitting entry point
// serves the objects of Select's Positions, byte for byte, however the
// viewport is served — tiles computed for this request, tiles all
// cached, or no tiles at all (the fallback).
func TestAppendSelectJSONMatchesSelect(t *testing.T) {
	store := testStore(t, 4000, 1)
	view, version := store.Snapshot()
	objs := view.Collection().Objects
	objs[view.Region(geo.Rect{Min: geo.Pt(0.2, 0.2), Max: geo.Pt(0.45, 0.4)})[0]].Text = `esc"aped <&> ` + " "
	ctx := context.Background()
	const k = 20
	cases := []struct {
		name     string
		region   geo.Rect
		thetaMul float64
		fallback bool
	}{
		{"stitched", geo.Rect{Min: geo.Pt(0.2, 0.2), Max: geo.Pt(0.45, 0.4)}, 0.003, false},
		{"stitched wide", geo.Rect{Min: geo.Pt(0.05, 0.1), Max: geo.Pt(0.95, 0.9)}, 0.01, false},
		{"fallback", geo.Rect{Min: geo.Pt(0.1, 0.1), Max: geo.Pt(0.6, 0.55)}, 0.5, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			theta := tc.thetaMul * tc.region.Width()
			ref := newTestCache(t, engine.Config{})
			c := newTestCache(t, engine.Config{})
			prefix := []byte(`{"objects":`)
			for pass, wantMisses := range []bool{true, false} { // cold miss, then warm
				want, err := ref.Select(ctx, view, version, tc.region, k, theta, nil)
				if err != nil {
					t.Fatal(err)
				}
				body, got, err := c.AppendSelectJSON(ctx, view, version, tc.region, k, theta, append([]byte(nil), prefix...))
				if err != nil {
					t.Fatal(err)
				}
				if got.Fallback != tc.fallback || want.Fallback != tc.fallback {
					t.Fatalf("pass %d: fallback = %v (Select: %v), want %v", pass, got.Fallback, want.Fallback, tc.fallback)
				}
				if !tc.fallback && (got.TileMisses > 0) != wantMisses {
					t.Fatalf("pass %d: %d tile misses", pass, got.TileMisses)
				}
				if len(want.Positions) == 0 {
					t.Fatal("empty selection; pick a fuller region")
				}
				if !bytes.HasPrefix(body, prefix) {
					t.Fatalf("pass %d: dst prefix clobbered", pass)
				}
				if wantBody := geodata.AppendObjectsJSON(nil, objs, want.Positions); !bytes.Equal(body[len(prefix):], wantBody) {
					t.Fatalf("pass %d: objects differ from Select's positions:\n got %s\nwant %s", pass, body[len(prefix):], wantBody)
				}
				if got.Positions != nil {
					t.Errorf("pass %d: AppendSelectJSON returned positions", pass)
				}
				want.Positions = nil
				if !reflect.DeepEqual(got, want) {
					t.Errorf("pass %d: result %+v, Select's %+v", pass, got, want)
				}
			}
			if a, b := c.Stats(), ref.Stats(); a.WarmServes != b.WarmServes || a.Fallbacks != b.Fallbacks || a.Requests != b.Requests {
				t.Errorf("counters diverge: %+v vs %+v", a, b)
			}
		})
	}
}

// TestAppendKeptRendersForcedMembers: the emit loop behind
// AppendSelectJSON also serves a stitch with a forced set — members no
// covering tile holds a fragment for are rendered from their positions,
// and the output is still the objects of keptPos in order.
func TestAppendKeptRendersForcedMembers(t *testing.T) {
	store := testStore(t, 4000, 13)
	view, version := store.Snapshot()
	objs := view.Collection().Objects
	c := newTestCache(t, engine.Config{})
	ctx := context.Background()
	region := geo.Rect{Min: geo.Pt(0.2, 0.2), Max: geo.Pt(0.5, 0.45)}
	theta := 0.003 * region.Width()
	const k = 15

	base, err := c.Select(ctx, view, version, region, k, theta, nil)
	if err != nil || base.Fallback {
		t.Fatalf("base select: err=%v fallback=%v", err, base.Fallback)
	}
	// One forced member the tiles also selected, one they did not.
	inTiles := make(map[int]bool)
	for _, p := range base.Positions {
		inTiles[p] = true
	}
	forced := []int{base.Positions[2]}
	for _, p := range view.Region(region) {
		if !inTiles[p] {
			forced = append(forced, p)
			break
		}
	}
	sc := c.getScratch()
	defer c.putScratch(sc)
	_, ok, err := c.stitchRegion(ctx, view, version, region, k, theta, forced, nil, sc)
	if err != nil || !ok {
		t.Fatalf("forced stitch: ok=%v err=%v", ok, err)
	}
	if len(sc.keptPos) <= len(forced) || int(sc.keptPos[0]) != forced[0] || int(sc.keptPos[1]) != forced[1] {
		t.Fatalf("forced set not kept first: %v", sc.keptPos)
	}
	positions := make([]int, len(sc.keptPos))
	for i, p := range sc.keptPos {
		positions[i] = int(p)
	}
	got := appendKept(nil, sc, objs)
	if want := geodata.AppendObjectsJSON(nil, objs, positions); !bytes.Equal(got, want) {
		t.Fatalf("forced-set emit differs:\n got %s\nwant %s", got, want)
	}
}

func TestWarmAppendSelectJSONDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under the race detector, so the pooled scratch reallocates")
	}
	store := testStore(t, 4000, 7)
	view, version := store.Snapshot()
	c := newTestCache(t, engine.Config{})
	ctx := context.Background()
	region := geo.Rect{Min: geo.Pt(0.25, 0.3), Max: geo.Pt(0.5, 0.5)}
	theta := 0.003 * region.Width()
	dst := make([]byte, 0, 4096)
	for i := 0; i < 3; i++ { // warm the tiles and the scratch pool
		_, res, err := c.AppendSelectJSON(ctx, view, version, region, 15, theta, dst[:0])
		if err != nil || res.Fallback {
			t.Fatalf("warmup: err=%v fallback=%v", err, res.Fallback)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		body, res, err := c.AppendSelectJSON(ctx, view, version, region, 15, theta, dst[:0])
		if err != nil || res.Fallback || res.TileMisses != 0 || len(body) > cap(dst) {
			panic("warm hit regressed mid-measurement")
		}
	})
	if allocs > 0 {
		t.Fatalf("warm AppendSelectJSON allocates %.2f objects per request; the steady state must be allocation-free", allocs)
	}
}

// doneSpy counts Done calls: getTile's first use of a waiter's ctx is
// the select it waits in, so the count says how far a waiter has come
// without any hook in the code under test.
type doneSpy struct {
	context.Context
	calls atomic.Int32
}

func (d *doneSpy) Done() <-chan struct{} {
	d.calls.Add(1)
	return d.Context.Done()
}

// gatedView holds a tile compute at its first step, the region fetch,
// until the gate opens.
type gatedView struct {
	geodata.View
	once    sync.Once
	entered chan struct{}
	gate    chan struct{}
}

func newGatedView(v geodata.View) *gatedView {
	return &gatedView{View: v, entered: make(chan struct{}), gate: make(chan struct{})}
}

func (g *gatedView) Region(r geo.Rect) []int {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return g.View.Region(r)
}

func gatedTile(ctx context.Context, c *Cache, view geodata.View) error {
	_, _, err := c.TilePayload(ctx, view, 0, 1, 0, 0, DefaultTileTheta(1, 0.003), 8, nil)
	return err
}

// TestCancelledLeaderFailsNoWaiter: the leader of a coalesced tile
// compute is cancelled mid-compute. Its cancellation is its own: the
// compute runs on under the cache's budget and fills the entry, every
// waiter gets the tile from that one compute (counted as coalesced), and
// the next request hits.
func TestCancelledLeaderFailsNoWaiter(t *testing.T) {
	view, _ := testStore(t, 1500, 21).Snapshot()
	c := newTestCache(t, engine.Config{})

	leaderView := newGatedView(view)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- gatedTile(leaderCtx, c, leaderView) }()
	<-leaderView.entered

	const waiters = 6
	spies := make([]*doneSpy, waiters)
	errs := make(chan error, waiters)
	for i := range spies {
		spies[i] = &doneSpy{Context: context.Background()}
		go func(ctx context.Context) { errs <- gatedTile(ctx, c, view) }(spies[i])
	}
	for parked := 0; parked < waiters; { // all waiting on the leader's flight
		runtime.Gosched()
		parked = 0
		for _, s := range spies {
			if s.calls.Load() >= 1 {
				parked++
			}
		}
	}

	cancelLeader()
	close(leaderView.gate) // the compute resumes with its requester gone
	if err := <-leaderErr; err != nil {
		t.Fatalf("cancelled leader's compute failed: %v", err)
	}
	for i := 0; i < waiters; i++ {
		if err := <-errs; err != nil {
			t.Errorf("waiter failed with the leader's cancellation: %v", err)
		}
	}
	if st := c.Stats(); st.Coalesced != waiters || st.TileMisses != 1 {
		t.Errorf("coalesced = %d, tile misses = %d; want %d and 1", st.Coalesced, st.TileMisses, waiters)
	}
	if err := gatedTile(context.Background(), c, view); err != nil {
		t.Fatal(err)
	}
	// Each waiter re-read the filled entry (a hit), and so does the
	// request after them.
	if st := c.Stats(); st.TileHits != waiters+1 || st.TileMisses != 1 {
		t.Errorf("after the fill: tile hits = %d, misses = %d; want %d and 1", st.TileHits, st.TileMisses, waiters+1)
	}
}

// TestDetachedComputeFillsWithoutWaiters: a cold compute whose only
// requester is cancelled mid-compute still fills its entry, so the next
// request for the tile hits instead of starting over.
func TestDetachedComputeFillsWithoutWaiters(t *testing.T) {
	view, _ := testStore(t, 1500, 23).Snapshot()
	c := newTestCache(t, engine.Config{RequestTimeout: time.Minute})
	gv := newGatedView(view)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- gatedTile(ctx, c, gv) }()
	<-gv.entered
	cancel()
	close(gv.gate)
	if err := <-errc; err != nil {
		t.Fatalf("compute of a cancelled requester failed: %v", err)
	}
	if err := gatedTile(context.Background(), c, view); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.TileMisses != 1 || st.TileHits != 1 {
		t.Fatalf("misses %d, hits %d; want the one compute and then a hit", st.TileMisses, st.TileHits)
	}
}

// TestWaiterHonoursItsOwnContext: a waiter whose own ctx ends stops
// waiting, whatever the leader is doing.
func TestWaiterHonoursItsOwnContext(t *testing.T) {
	view, _ := testStore(t, 1500, 22).Snapshot()
	c := newTestCache(t, engine.Config{})
	leaderView := newGatedView(view)
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- gatedTile(context.Background(), c, leaderView) }()
	<-leaderView.entered

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spy := &doneSpy{Context: ctx}
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- gatedTile(spy, c, view) }()
	for spy.calls.Load() == 0 {
		runtime.Gosched()
	}
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	close(leaderView.gate)
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader: %v", err)
	}
}
