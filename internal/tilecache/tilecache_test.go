package tilecache

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"geosel/internal/core"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/livestore"
	"geosel/internal/sim"
)

func testCollection(n int, seed int64) *geodata.Collection {
	rng := rand.New(rand.NewSource(seed))
	col := geodata.NewCollection()
	words := []string{"cafe", "bar", "park", "gym", "zoo", "pier", "dock", "inn"}
	for i := 0; i < n; i++ {
		text := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		col.Add(i, geo.Pt(rng.Float64(), rng.Float64()), 0.2+0.8*rng.Float64(), text)
	}
	return col
}

func testStore(t *testing.T, n int, seed int64) *geodata.Store {
	t.Helper()
	store, err := geodata.NewStore(testCollection(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func newTestCache(t *testing.T, cfg engine.Config) *Cache {
	t.Helper()
	if cfg.Metric == nil {
		cfg.Metric = sim.Cosine{}
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestZoomFor(t *testing.T) {
	// The invariant zoomFor promises: tiles at the chosen zoom are at
	// least half the viewport side (so a viewport spans at most 3x3
	// tiles), and one level deeper they would be smaller than that.
	for _, side := range []float64{1, 0.7, 0.5, 0.3, 0.1, 0.01, 1e-6} {
		z := zoomFor(side)
		if Side(z) < side/2 {
			t.Errorf("side %v: zoom %d tile side %v below half the viewport", side, z, Side(z))
		}
		if z < maxZoom && Side(z+1) >= side {
			t.Errorf("side %v: zoom %d is shallower than necessary", side, z)
		}
	}
	if z := zoomFor(0); z != maxZoom {
		t.Errorf("zoomFor(0) = %d, want clamp to %d", z, maxZoom)
	}
	if z := zoomFor(8); z != 0 {
		t.Errorf("zoomFor(8) = %d, want clamp to 0", z)
	}
}

func TestBandRoundsThetaUp(t *testing.T) {
	// A cached tile must be at least as separated as any request that
	// maps to its key: the band representative rounds θ up, and the next
	// band down is strictly below the request.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		z := int32(rng.Intn(12))
		theta := math.Ldexp(rng.Float64(), -rng.Intn(20))
		b := bandFor(theta, z)
		if b == bandZero {
			t.Fatalf("positive theta %v mapped to bandZero", theta)
		}
		rep := bandTheta(z, b)
		if rep < theta*(1-1e-12) {
			t.Errorf("z %d theta %v: band %d representative %v below request", z, theta, b, rep)
		}
		if next := bandTheta(z, b+1); next >= theta*(1+1e-12) && b+1 <= bandClamp*thetaBands {
			t.Errorf("z %d theta %v: band %d is coarser than necessary (next rep %v)", z, theta, b, next)
		}
	}
	if bandFor(0, 4) != bandZero {
		t.Error("theta 0 must map to bandZero")
	}
	if bandTheta(4, bandZero) != 0 {
		t.Error("bandZero must represent theta 0")
	}
}

func TestCoverRange(t *testing.T) {
	r := geo.Rect{Min: geo.Pt(0.26, 0.1), Max: geo.Pt(0.49, 0.24)}
	x0, y0, x1, y1, ok := coverRange(r, 2) // tile side 0.25
	if !ok || x0 != 1 || x1 != 1 || y0 != 0 || y1 != 0 {
		t.Fatalf("coverRange = (%d,%d)-(%d,%d) ok=%v, want (1,0)-(1,0)", x0, y0, x1, y1, ok)
	}
	// A rect poking past the unit square clamps to the grid.
	r = geo.Rect{Min: geo.Pt(-0.4, 0.9), Max: geo.Pt(0.1, 1.7)}
	x0, y0, x1, y1, ok = coverRange(r, 1)
	if !ok || x0 != 0 || x1 != 0 || y0 != 1 || y1 != 1 {
		t.Fatalf("clamped coverRange = (%d,%d)-(%d,%d) ok=%v, want (0,1)-(0,1)", x0, y0, x1, y1, ok)
	}
	// The covering tiles actually contain the rect.
	r = geo.Rect{Min: geo.Pt(0.1, 0.2), Max: geo.Pt(0.6, 0.3)}
	x0, y0, x1, y1, _ = coverRange(r, 3)
	cover := geo.Rect{
		Min: Tile{Z: 3, X: x0, Y: y0}.Rect().Min,
		Max: Tile{Z: 3, X: x1, Y: y1}.Rect().Max,
	}
	if !cover.ContainsRect(r) {
		t.Fatalf("cover %v does not contain %v", cover, r)
	}
}

func TestSelectWarmHit(t *testing.T) {
	store := testStore(t, 4000, 1)
	view, version := store.Snapshot()
	c := newTestCache(t, engine.Config{})
	ctx := context.Background()
	region := geo.Rect{Min: geo.Pt(0.2, 0.2), Max: geo.Pt(0.45, 0.4)}
	theta := 0.003 * region.Width()
	const k = 20

	res1, err := c.Select(ctx, view, version, region, k, theta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Fallback {
		t.Fatal("cold select fell back; pick a friendlier region for this test")
	}
	if res1.TileMisses == 0 {
		t.Error("cold select reported no tile misses")
	}
	res2, err := c.Select(ctx, view, version, region, k, theta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fallback || res2.TileMisses != 0 {
		t.Fatalf("second select not a warm hit: fallback=%v misses=%d", res2.Fallback, res2.TileMisses)
	}
	if len(res2.Positions) == 0 || len(res2.Positions) > k {
		t.Fatalf("warm selection size %d outside (0, %d]", len(res2.Positions), k)
	}
	objs := view.Collection().Objects
	for _, p := range res2.Positions {
		if !region.Contains(objs[p].Loc) {
			t.Fatalf("position %d outside the viewport", p)
		}
	}
	if !core.SatisfiesVisibility(objs, res2.Positions, theta) {
		t.Fatal("warm selection violates θ-separation")
	}
	// Stitching is deterministic: the warm serve repeats the cold one.
	if len(res1.Positions) != len(res2.Positions) {
		t.Fatalf("cold/warm sizes differ: %d vs %d", len(res1.Positions), len(res2.Positions))
	}
	for i := range res1.Positions {
		if res1.Positions[i] != res2.Positions[i] {
			t.Fatalf("cold/warm positions differ at %d", i)
		}
	}
	st := c.Stats()
	if st.WarmServes < 1 || st.TileHits < 1 {
		t.Errorf("stats did not record the warm serve: %+v", st)
	}
}

func TestFallbackBitwiseIdenticalToDirect(t *testing.T) {
	store := testStore(t, 3000, 2)
	view, version := store.Snapshot()
	cfg := engine.Config{Metric: sim.Cosine{}}
	c := newTestCache(t, cfg)
	ctx := context.Background()
	region := geo.Rect{Min: geo.Pt(0.1, 0.1), Max: geo.Pt(0.6, 0.55)}
	// A θ of half the viewport side conflicts nearly everything across
	// seams, blowing any repair budget.
	theta := 0.5 * region.Width()
	const k = 10

	res, err := c.Select(ctx, view, version, region, k, theta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Fatal("expected the oversized θ to force a fallback")
	}
	// The fallback must be bitwise-identical to the uncached path.
	regionPos := view.Region(region)
	dcfg := cfg.WithDefaults()
	dcfg.K = k
	dcfg.Theta = theta
	dcfg.ThetaFrac = 0
	sel := &core.Selector{Config: dcfg, Objects: view.Collection().Subset(regionPos)}
	direct, err := sel.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Selected) != len(res.Positions) {
		t.Fatalf("fallback size %d, direct %d", len(res.Positions), len(direct.Selected))
	}
	for i, s := range direct.Selected {
		if res.Positions[i] != regionPos[s] {
			t.Fatalf("fallback position %d differs from direct", i)
		}
	}
	if res.Score != direct.Score {
		t.Fatalf("fallback score %v != direct %v", res.Score, direct.Score)
	}
	if c.Stats().Fallbacks == 0 {
		t.Error("fallback not counted")
	}
}

// TestEvictionBoundedByCapacity: the cache holds exactly
// TileCacheCapacity entries, whatever the capacity, evicts the least
// recently used one first, and counts an evicted entry an epoch
// dirtied as an invalidation.
func TestEvictionBoundedByCapacity(t *testing.T) {
	store := testStore(t, 2000, 3)
	view, version := store.Snapshot()
	ctx := context.Background()
	tile := func(x, y int32) Key { return Key{T: Tile{Z: 3, X: x, Y: y}, Band: bandZero, K: 5} }
	get := func(t *testing.T, c *Cache, key Key) bool {
		t.Helper()
		sc := c.getScratch()
		defer c.putScratch(sc)
		_, hit, err := c.getTile(ctx, view, version, key, sc)
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}

	t.Run("exact capacity", func(t *testing.T) {
		c := newTestCache(t, engine.Config{TileCacheCapacity: 5})
		for x := int32(0); x < 8; x++ {
			for y := int32(0); y < 8; y++ {
				get(t, c, tile(x, y))
			}
		}
		if st := c.Stats(); st.Entries != 5 || st.Capacity != 5 || st.Evictions != 59 {
			t.Fatalf("64 tiles through capacity 5: %d entries, capacity %d, %d evictions; want 5, 5, 59",
				st.Entries, st.Capacity, st.Evictions)
		}
	})

	t.Run("least recently used goes", func(t *testing.T) {
		c := newTestCache(t, engine.Config{TileCacheCapacity: 3})
		a, b, cc, d := tile(0, 0), tile(1, 0), tile(2, 0), tile(3, 0)
		for _, key := range []Key{a, b, cc} {
			get(t, c, key)
		}
		if !get(t, c, a) {
			t.Fatal("A missed before any eviction")
		}
		get(t, c, d)
		if st := c.Stats(); st.Entries != 3 || st.Evictions != 1 {
			t.Fatalf("%d entries, %d evictions; want 3, 1", st.Entries, st.Evictions)
		}
		// A first: a hit only moves it up, a miss on B then evicts C.
		if hitA, hitB := get(t, c, a), get(t, c, b); !hitA || hitB {
			t.Fatalf("after A, B, C, A, D at capacity 3: A hit %v, B hit %v; want B evicted and A kept", hitA, hitB)
		}
	})

	t.Run("a dirtied tail leaves as an invalidation", func(t *testing.T) {
		ls, err := livestore.New(testCollection(2000, 3), engine.Config{Metric: sim.Cosine{}})
		if err != nil {
			t.Fatal(err)
		}
		c := newTestCache(t, engine.Config{TileCacheCapacity: 2})
		getAt := func(key Key) {
			t.Helper()
			view, version := ls.Snapshot()
			sc := c.getScratch()
			defer c.putScratch(sc)
			if _, _, err := c.getTile(ctx, view, version, key, sc); err != nil {
				t.Fatal(err)
			}
		}
		getAt(tile(0, 0))
		getAt(tile(7, 7))
		// Dirty tile (0, 0) only; it is the tail, and two inserts push
		// out both entries.
		view, _ := ls.Snapshot()
		o := view.Collection().Objects[view.Region(tile(0, 0).T.Rect())[0]]
		applyEpoch(t, ls, []livestore.Mutation{{Op: livestore.OpUpdate, ID: o.ID, Loc: o.Loc, Weight: 0.9, Text: "dirt"}})
		getAt(tile(3, 4))
		getAt(tile(4, 3))
		if st := c.Stats(); st.Invalidations != 1 || st.Evictions != 1 {
			t.Fatalf("%d invalidations, %d evictions; want the dirtied tile counted as an invalidation and the clean one as an eviction",
				st.Invalidations, st.Evictions)
		}
	})
}

func TestWireRoundTrip(t *testing.T) {
	store := testStore(t, 3000, 4)
	view, version := store.Snapshot()
	c := newTestCache(t, engine.Config{})
	ctx := context.Background()
	theta := DefaultTileTheta(2, 0.003)
	payload, etag, err := c.TilePayload(ctx, view, version, 2, 1, 1, theta, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if etag == "" {
		t.Fatal("empty ETag")
	}
	d, err := DecodeTile(payload)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tile != (Tile{Z: 2, X: 1, Y: 1}) || d.K != 10 || d.Version != version {
		t.Fatalf("decoded header %+v", d)
	}
	if len(d.Members) == 0 || len(d.Members) > 10 {
		t.Fatalf("decoded %d members", len(d.Members))
	}
	tileRect := d.Tile.Rect()
	objs := view.Collection().Objects
	for _, m := range d.Members {
		o := &objs[m.Pos]
		if o.ID != m.ID {
			t.Fatalf("member pos %d: id %d != %d", m.Pos, m.ID, o.ID)
		}
		if math.Abs(m.Loc.X-o.Loc.X) > 1e-6 || math.Abs(m.Loc.Y-o.Loc.Y) > 1e-6 {
			t.Fatalf("member pos %d: loc drifted beyond float32 downcast", m.Pos)
		}
		grow := geo.Rect{
			Min: geo.Pt(tileRect.Min.X-1e-6, tileRect.Min.Y-1e-6),
			Max: geo.Pt(tileRect.Max.X+1e-6, tileRect.Max.Y+1e-6),
		}
		if !grow.Contains(m.Loc) {
			t.Fatalf("member pos %d at %v outside tile %v", m.Pos, m.Loc, tileRect)
		}
	}
	// Identical request: identical bytes, identical ETag.
	again, etag2, err := c.TilePayload(ctx, view, version, 2, 1, 1, theta, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if etag2 != etag || !bytes.Equal(again, payload) {
		t.Fatal("repeat request changed payload or ETag")
	}
	// Hostile inputs decode to errors, not panics.
	if _, err := DecodeTile(payload[:len(payload)-3]); err == nil {
		t.Error("truncated payload decoded")
	}
	if _, err := DecodeTile([]byte("XXXX")); err == nil {
		t.Error("bad magic decoded")
	}
	if _, err := DecodeTile(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Error("trailing garbage decoded")
	}
}

func applyEpoch(t *testing.T, ls *livestore.Store, muts []livestore.Mutation) uint64 {
	t.Helper()
	version, _, err := ls.Apply(context.Background(), muts)
	if err != nil {
		t.Fatal(err)
	}
	return version
}

func TestEpochInvalidationRecomputesDirtyTileOnly(t *testing.T) {
	ls, err := livestore.New(testCollection(3000, 5), engine.Config{Metric: sim.Cosine{}})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCache(t, engine.Config{})
	ctx := context.Background()
	view1, v1 := ls.Snapshot()
	theta := DefaultTileTheta(1, 0.003)

	// Warm both zoom-1 corner tiles.
	for _, xy := range [][2]int{{0, 0}, {1, 1}} {
		if _, _, err := c.TilePayload(ctx, view1, v1, 1, xy[0], xy[1], theta, 8, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Dirty only the lower-left tile: update one object deep inside it.
	pos := view1.Region(geo.Rect{Min: geo.Pt(0.2, 0.2), Max: geo.Pt(0.3, 0.3)})
	if len(pos) == 0 {
		t.Fatal("no object inside the probe rect")
	}
	o := view1.Collection().Objects[pos[0]]
	v2 := applyEpoch(t, ls, []livestore.Mutation{{
		Op: livestore.OpUpdate, ID: o.ID, Loc: geo.Pt(0.31, 0.29), Weight: 0.9, Text: o.Text,
	}})
	view2, sv2 := ls.Snapshot()
	if sv2 != v2 {
		t.Fatalf("snapshot version %d after epoch %d", sv2, v2)
	}

	dirty, _, err := c.TilePayload(ctx, view2, v2, 1, 0, 0, theta, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := DecodeTile(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if dd.Version != v2 {
		t.Fatalf("dirty tile served at version %d, want recompute at %d", dd.Version, v2)
	}
	clean, _, err := c.TilePayload(ctx, view2, v2, 1, 1, 1, theta, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := DecodeTile(clean)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Version != v1 {
		t.Fatalf("clean tile recomputed at %d, want carried entry born at %d", dc.Version, v1)
	}
	if c.Stats().Invalidations == 0 {
		t.Error("dirty tile eviction not counted")
	}
}

func TestOlderPinnedVersionBypassesCache(t *testing.T) {
	ls, err := livestore.New(testCollection(2000, 6), engine.Config{Metric: sim.Cosine{}})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCache(t, engine.Config{})
	ctx := context.Background()
	region := geo.Rect{Min: geo.Pt(0.3, 0.3), Max: geo.Pt(0.55, 0.5)}
	theta := 0.003 * region.Width()

	view1, v1 := ls.Snapshot()
	pinned := livestore.Freeze(ls.Current())
	applyEpoch(t, ls, []livestore.Mutation{{
		Op: livestore.OpInsert, ID: 999999, Loc: geo.Pt(0.4, 0.4), Weight: 0.7, Text: "cafe",
	}})
	view2, v2 := ls.Snapshot()

	// Serve the new epoch first: entries are born at v2.
	if _, err := c.Select(ctx, view2, v2, region, 10, theta, nil); err != nil {
		t.Fatal(err)
	}
	// A request still pinned to v1 must not thrash the fresher entries
	// — and must still answer correctly on its own snapshot.
	pview, pv := pinned.Snapshot()
	if pv != v1 {
		t.Fatalf("pinned snapshot at %d, want %d", pv, v1)
	}
	res, err := c.Select(ctx, pview, pv, region, 10, theta, nil)
	if err != nil {
		t.Fatal(err)
	}
	objs := pview.Collection().Objects
	for _, p := range res.Positions {
		if !region.Contains(objs[p].Loc) {
			t.Fatalf("position %d outside region on the pinned view", p)
		}
	}
	if c.Stats().Bypasses == 0 {
		t.Error("old-pinned request did not bypass")
	}
	// The fresher entries survived the bypass.
	res2, err := c.Select(ctx, view2, v2, region, 10, theta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.TileMisses != 0 {
		t.Errorf("bypass evicted fresh entries: %d misses", res2.TileMisses)
	}
	_ = view1
}

func TestWarmHitDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under the race detector, so the pooled scratch reallocates")
	}
	store := testStore(t, 4000, 7)
	view, version := store.Snapshot()
	c := newTestCache(t, engine.Config{})
	ctx := context.Background()
	region := geo.Rect{Min: geo.Pt(0.25, 0.3), Max: geo.Pt(0.5, 0.5)}
	theta := 0.003 * region.Width()
	dst := make([]int, 0, 64)
	for i := 0; i < 3; i++ { // warm the tiles and the scratch pool
		res, err := c.Select(ctx, view, version, region, 15, theta, dst[:0])
		if err != nil || res.Fallback {
			t.Fatalf("warmup: err=%v fallback=%v", err, res.Fallback)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		res, err := c.Select(ctx, view, version, region, 15, theta, dst[:0])
		if err != nil || res.Fallback || res.TileMisses != 0 {
			panic("warm hit regressed mid-measurement")
		}
	})
	if allocs > 0 {
		t.Fatalf("warm hit allocates %.2f objects per request; the steady state must be allocation-free", allocs)
	}
}

// TestFarIngestReachesCachedAnswers ingests live objects far past the
// ±1e300 that the grid widens its edge cells to (a location is valid up
// to ±1e308), where the dirty rectangle of the cell an object clamps
// into does not cover it. No cached answer may miss such an object: a
// viewport served from the tiles before the write must, after it, answer
// with the new object.
func TestFarIngestReachesCachedAnswers(t *testing.T) {
	ctx := context.Background()
	for _, loc := range []geo.Point{geo.Pt(2e300, 0.5), geo.Pt(-5e307, 0.25), geo.Pt(0.5, 3e300)} {
		ls, err := livestore.New(testCollection(400, 8), engine.Config{Metric: sim.Cosine{}})
		if err != nil {
			t.Fatal(err)
		}
		c := newTestCache(t, engine.Config{})
		region := geo.Rect{
			Min: geo.Pt(min(0, loc.X), min(0, loc.Y)),
			Max: geo.Pt(max(1, loc.X), max(1, loc.Y)),
		}
		// k above the object count and θ = 0 select every object, so the
		// answer lists the new one exactly when it sees it.
		const k = 500
		view1, v1 := ls.Snapshot()
		res, err := c.Select(ctx, view1, v1, region, k, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fallback || res.Tiles == 0 {
			t.Fatalf("%v: the viewport before the write was not served from the tiles (fallback=%v, tiles=%d)", loc, res.Fallback, res.Tiles)
		}
		v2 := applyEpoch(t, ls, []livestore.Mutation{{Op: livestore.OpInsert, ID: 999999, Loc: loc, Weight: 0.9, Text: "harbour"}})
		view2, sv2 := ls.Snapshot()
		if sv2 != v2 {
			t.Fatalf("snapshot version %d after epoch %d", sv2, v2)
		}
		res, err = c.Select(ctx, view2, v2, region, k, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		objs := view2.Collection().Objects
		found := false
		for _, p := range res.Positions {
			found = found || objs[p].ID == 999999
		}
		if !found {
			t.Fatalf("%v: the answer after the write misses the new object (%d positions, fallback=%v)", loc, len(res.Positions), res.Fallback)
		}
	}
}
