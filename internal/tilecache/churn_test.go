package tilecache

// Churn tests: concurrent ingestion against concurrent cache serving,
// proving dirty-tile invalidation never lets an epoch-mixing or stale
// selection out of the cache. Named *Churn* so CI's churn-stress job
// (`go test -race -run Churn -tags geoselcheck`) picks them up.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"geosel/internal/core"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/livestore"
	"geosel/internal/sim"
)

// TestChurnDirtyTilesNeverServedStale hammers the cache from reader
// goroutines while a writer commits epochs that rewrite (update,
// delete, re-insert — recycling livestore slots) the objects of one hot
// cell. Every concurrent serve must hold the selection contract on its
// own pinned snapshot, and once the dust settles the hot tile must be
// served at a compute version at least as new as the last epoch that
// dirtied it — the direct proof that no stale entry survived.
func TestChurnDirtyTilesNeverServedStale(t *testing.T) {
	ls, err := livestore.New(testCollection(2500, 17), engine.Config{Metric: sim.Cosine{}})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCache(t, engine.Config{TileCacheCapacity: 256})
	ctx := context.Background()

	// The hot cell sits inside zoom-1 tile (0,0); far viewports over
	// tile (1,1) stay clean the whole run.
	hot := geo.Rect{Min: geo.Pt(0.15, 0.15), Max: geo.Pt(0.35, 0.35)}
	var lastDirtyVersion atomic.Uint64
	done := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(29))
		view, _ := ls.Snapshot()
		hotIDs := make([]int, 0, 64)
		for _, p := range view.Region(hot) {
			hotIDs = append(hotIDs, view.Collection().Objects[p].ID)
		}
		if len(hotIDs) < 4 {
			t.Error("hot cell too empty to churn")
			return
		}
		nextID := 1 << 20
		for epoch := 0; epoch < 60; epoch++ {
			muts := make([]livestore.Mutation, 0, 8)
			for i := 0; i < 4; i++ {
				id := hotIDs[rng.Intn(len(hotIDs))]
				loc := geo.Pt(
					hot.Min.X+rng.Float64()*(hot.Max.X-hot.Min.X),
					hot.Min.Y+rng.Float64()*(hot.Max.Y-hot.Min.Y),
				)
				switch epoch % 3 {
				case 0:
					muts = append(muts, livestore.Mutation{
						Op: livestore.OpUpdate, ID: id, Loc: loc,
						Weight: 0.2 + 0.7*rng.Float64(), Text: "cafe pier",
					})
				case 1:
					muts = append(muts, livestore.Mutation{Op: livestore.OpDelete, ID: id})
				default:
					// Re-insert under a fresh ID: recycles dead slots, the
					// sharpest staleness hazard (a stale tile entry would
					// point its positions at different objects).
					muts = append(muts, livestore.Mutation{
						Op: livestore.OpInsert, ID: nextID, Loc: loc,
						Weight: 0.2 + 0.7*rng.Float64(), Text: "bar dock",
					})
					hotIDs = append(hotIDs, nextID)
					nextID++
				}
			}
			v, _, err := ls.Apply(ctx, muts)
			if err != nil {
				t.Error(err)
				return
			}
			lastDirtyVersion.Store(v)
		}
	}()

	viewports := []geo.Rect{
		{Min: geo.Pt(0.1, 0.1), Max: geo.Pt(0.4, 0.38)},  // overlaps the hot cell
		{Min: geo.Pt(0.2, 0.05), Max: geo.Pt(0.45, 0.3)}, // overlaps the hot cell
		{Min: geo.Pt(0.6, 0.6), Max: geo.Pt(0.85, 0.82)}, // clean tile (1,1)
		{Min: geo.Pt(0.55, 0.7), Max: geo.Pt(0.8, 0.95)}, // clean tile (1,1)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) { // reader
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				region := viewports[rng.Intn(len(viewports))]
				theta := 0.01 * region.Width()
				view, version := ls.Snapshot()
				res, err := c.Select(ctx, view, version, region, 12, theta, nil)
				if err != nil {
					t.Error(err)
					return
				}
				// Every served position must resolve in-region on the
				// request's own pinned snapshot, θ-separated under the
				// requested threshold — a selection mixing tile entries
				// from different effective epochs would trip these.
				objs := view.Collection().Objects
				for _, p := range res.Positions {
					if p < 0 || p >= len(objs) {
						t.Errorf("position %d outside the pinned collection", p)
						return
					}
					if !region.Contains(objs[p].Loc) {
						t.Errorf("position %d outside the viewport on its own snapshot", p)
						return
					}
				}
				if !core.SatisfiesVisibility(objs, res.Positions, theta) {
					t.Error("churned serve violates θ-separation")
					return
				}
			}
		}(int64(31 + r))
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Settled check: the hot tile must have been recomputed at (or
	// after) the last epoch that dirtied it; a smaller born version is
	// a stale entry escaping invalidation.
	view, version := ls.Snapshot()
	theta := DefaultTileTheta(1, 0.003)
	payload, _, err := c.TilePayload(ctx, view, version, 1, 0, 0, theta, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeTile(payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := lastDirtyVersion.Load(); d.Version < want {
		t.Fatalf("hot tile served at stale version %d; last dirtying epoch was %d", d.Version, want)
	}
	tileRect := (Tile{Z: 1, X: 0, Y: 0}).Rect()
	for _, m := range d.Members {
		grow := geo.Rect{
			Min: geo.Pt(tileRect.Min.X-1e-6, tileRect.Min.Y-1e-6),
			Max: geo.Pt(tileRect.Max.X+1e-6, tileRect.Max.Y+1e-6),
		}
		if !grow.Contains(m.Loc) {
			t.Fatalf("member at %v outside the hot tile: stale position pointing at a recycled slot", m.Loc)
		}
	}
}

// bodyObjects splits a JSON array of objects as AppendSelectJSON emits
// it into the raw bytes and the id of each object.
func bodyObjects(t *testing.T, body []byte) ([]json.RawMessage, []int) {
	t.Helper()
	var raws []json.RawMessage
	if err := json.Unmarshal(body, &raws); err != nil {
		t.Fatalf("served body is not a JSON array: %v: %s", err, body)
	}
	ids := make([]int, len(raws))
	for i, raw := range raws {
		var o struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(raw, &o); err != nil {
			t.Fatalf("served object %s: %v", raw, err)
		}
		ids[i] = o.ID
	}
	return raws, ids
}

// checkBodyAgainstView holds a served body to the pinned view: every
// object in it is a live object of the viewport on that view, and its
// bytes are what a fresh render of that object gives — a fragment
// rendered before the object changed cannot pass.
func checkBodyAgainstView(t *testing.T, body []byte, view geodata.View, region geo.Rect) {
	t.Helper()
	objs := view.Collection().Objects
	posOf := make(map[int]int)
	for _, p := range view.Region(region) {
		posOf[objs[p].ID] = p
	}
	raws, ids := bodyObjects(t, body)
	for i, raw := range raws {
		p, ok := posOf[ids[i]]
		if !ok {
			t.Errorf("served object %s is not in the viewport on the request's own snapshot", raw)
			return
		}
		if fresh := geodata.AppendObjectJSON(nil, &objs[p]); !bytes.Equal(raw, fresh) {
			t.Errorf("stale bytes served:\n got %s\nwant %s", raw, fresh)
			return
		}
	}
}

// TestChurnUpdatedMemberServesNewBytes: the text and location of a
// cached tile member change; the next serve carries the new bytes, and
// is in every byte what a cache that never saw the old version serves.
func TestChurnUpdatedMemberServesNewBytes(t *testing.T) {
	// Three words out of forty: objects with identical term vectors tie
	// in gain, and a tie is broken by position, which an update changes.
	// The member updated below is one whose vector nothing else shares.
	rng := rand.New(rand.NewSource(5))
	col := geodata.NewCollection()
	bags := make(map[string]int)
	bag := func(text string) string {
		words := strings.Fields(strings.ToLower(strings.Trim(text, "<>")))
		sort.Strings(words)
		return strings.Join(words, " ")
	}
	for i := 0; i < 3000; i++ {
		text := fmt.Sprintf("w%d w%d w%d", rng.Intn(40), rng.Intn(40), rng.Intn(40))
		col.Add(i, geo.Pt(rng.Float64(), rng.Float64()), 0.2+0.8*rng.Float64(), text)
		bags[bag(text)]++
	}
	ls, err := livestore.New(col, engine.Config{Metric: sim.Cosine{}})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCache(t, engine.Config{})
	ctx := context.Background()
	region := geo.Rect{Min: geo.Pt(0.2, 0.2), Max: geo.Pt(0.45, 0.4)}
	theta := 0.003 * region.Width()
	const k = 12

	view1, v1 := ls.Snapshot()
	var before []byte
	for i := 0; i < 2; i++ { // fill, then serve from the filled tiles
		var res Result
		if before, res, err = c.AppendSelectJSON(ctx, view1, v1, region, k, theta, nil); err != nil || res.Fallback {
			t.Fatalf("serve at v1: err=%v fallback=%v", err, res.Fallback)
		}
	}
	raws, ids := bodyObjects(t, before)
	var oldBytes []byte
	var old geodata.Object
	for i, id := range ids {
		if o := view1.Collection().Objects[id]; bags[bag(o.Text)] == 1 { // ids are positions at v1
			oldBytes, old = raws[i], o
			break
		}
	}
	if oldBytes == nil {
		t.Fatal("no served member has a term vector of its own")
	}
	id := old.ID
	// Same terms (the tokenizer lowercases and drops punctuation), so the
	// selection keeps the member; different bytes, escapes included.
	moved := geo.Pt(old.Loc.X+1e-4, old.Loc.Y-1e-4)
	renamed := "<" + strings.ToUpper(old.Text) + ">"
	v2 := applyEpoch(t, ls, []livestore.Mutation{{
		Op: livestore.OpUpdate, ID: id, Loc: moved, Weight: old.Weight, Text: renamed,
	}})
	view2, _ := ls.Snapshot()

	after, res, err := c.AppendSelectJSON(ctx, view2, v2, region, k, theta, nil)
	if err != nil || res.Fallback {
		t.Fatalf("serve at v2: err=%v fallback=%v", err, res.Fallback)
	}
	if res.TileMisses == 0 {
		t.Fatal("the tile of the updated member was served from the cache")
	}
	if bytes.Contains(after, oldBytes) {
		t.Fatalf("old bytes %s served after the update", oldBytes)
	}
	want := geodata.AppendObjectJSON(nil, &geodata.Object{ID: id, Loc: moved, Weight: old.Weight, Text: renamed})
	if !bytes.Contains(after, want) {
		t.Fatalf("updated member's new bytes %s not served: %s", want, after)
	}
	checkBodyAgainstView(t, after, view2, region)
	fresh, _, err := newTestCache(t, engine.Config{}).AppendSelectJSON(ctx, view2, v2, region, k, theta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, fresh) {
		t.Fatalf("serve after the update differs from a fresh cache's:\n got %s\nwant %s", after, fresh)
	}
}

// TestChurnCleanEpochKeepsEntryAndBytes: an epoch that dirties only
// other cells leaves the viewport's entries where they are — same
// entries, born unchanged, nothing recomputed — and the served bytes
// identical.
func TestChurnCleanEpochKeepsEntryAndBytes(t *testing.T) {
	ls, err := livestore.New(testCollection(3000, 5), engine.Config{Metric: sim.Cosine{}})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCache(t, engine.Config{})
	ctx := context.Background()
	region := geo.Rect{Min: geo.Pt(0.6, 0.6), Max: geo.Pt(0.85, 0.82)}
	theta := 0.003 * region.Width()
	const k = 12

	view1, v1 := ls.Snapshot()
	before, res, err := c.AppendSelectJSON(ctx, view1, v1, region, k, theta, nil)
	if err != nil || res.Fallback {
		t.Fatalf("serve at v1: err=%v fallback=%v", err, res.Fallback)
	}
	entries := func() map[*entry]uint64 {
		out := make(map[*entry]uint64)
		c.mu.Lock()
		for _, e := range c.entries {
			out[e] = e.born
		}
		c.mu.Unlock()
		return out
	}
	had := entries()

	far := view1.Region(geo.Rect{Min: geo.Pt(0.05, 0.05), Max: geo.Pt(0.15, 0.15)})
	if len(far) == 0 {
		t.Fatal("no object in the far cell")
	}
	o := view1.Collection().Objects[far[0]]
	v2 := applyEpoch(t, ls, []livestore.Mutation{{
		Op: livestore.OpUpdate, ID: o.ID, Loc: geo.Pt(0.1, 0.1), Weight: 0.9, Text: "far away",
	}})
	view2, _ := ls.Snapshot()
	after, res, err := c.AppendSelectJSON(ctx, view2, v2, region, k, theta, nil)
	if err != nil || res.Fallback {
		t.Fatalf("serve at v2: err=%v fallback=%v", err, res.Fallback)
	}
	if res.TileMisses != 0 {
		t.Errorf("%d tiles recomputed by an epoch that touched none of them", res.TileMisses)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("bytes changed across a clean epoch:\n was %s\n now %s", before, after)
	}
	have := entries()
	for e, born := range had {
		if b, ok := have[e]; !ok || b != born || born != v1 {
			t.Errorf("entry %+v: born %d → %d (still cached: %v), want %d kept", e.key, born, b, ok, v1)
		}
	}
	checkBodyAgainstView(t, after, view2, region)
}

// TestChurnWarmBodiesMatchPinnedView serves rendered bodies from reader
// goroutines while a writer commits epochs that rewrite the text and
// location of one hot cell's objects. Every body — stitched from
// fragments rendered at whatever version their tile was computed — must
// equal, object for object, a fresh render against the request's own
// pinned view.
func TestChurnWarmBodiesMatchPinnedView(t *testing.T) {
	ls, err := livestore.New(testCollection(2500, 17), engine.Config{Metric: sim.Cosine{}})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCache(t, engine.Config{TileCacheCapacity: 256})
	ctx := context.Background()
	hot := geo.Rect{Min: geo.Pt(0.15, 0.15), Max: geo.Pt(0.35, 0.35)}
	done := make(chan struct{})
	var served, warm atomic.Int64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(41))
		view, _ := ls.Snapshot()
		var hotIDs []int
		for _, p := range view.Region(hot) {
			hotIDs = append(hotIDs, view.Collection().Objects[p].ID)
		}
		if len(hotIDs) < 4 {
			t.Error("hot cell too empty to churn")
			return
		}
		for epoch := 0; epoch < 40; epoch++ {
			// Pace the epochs on the readers, so that every epoch is
			// served from, warm and cold, before the next one lands.
			for served.Load() < int64(6*epoch) && !t.Failed() {
				runtime.Gosched()
			}
			muts := make([]livestore.Mutation, 0, 4)
			for i := 0; i < 4; i++ {
				muts = append(muts, livestore.Mutation{
					Op: livestore.OpUpdate, ID: hotIDs[rng.Intn(len(hotIDs))],
					Loc: geo.Pt(
						hot.Min.X+rng.Float64()*(hot.Max.X-hot.Min.X),
						hot.Min.Y+rng.Float64()*(hot.Max.Y-hot.Min.Y),
					),
					Weight: 0.5 + 0.5*rng.Float64(),
					Text:   fmt.Sprintf("cafe pier epoch%d <%d>", epoch, i),
				})
			}
			if _, _, err := ls.Apply(ctx, muts); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	viewports := []geo.Rect{
		{Min: geo.Pt(0.1, 0.1), Max: geo.Pt(0.4, 0.38)},  // overlaps the hot cell
		{Min: geo.Pt(0.2, 0.05), Max: geo.Pt(0.45, 0.3)}, // overlaps the hot cell
		{Min: geo.Pt(0.6, 0.6), Max: geo.Pt(0.85, 0.82)}, // clean
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) { // reader
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var buf []byte
			for {
				select {
				case <-done:
					return
				default:
				}
				region := viewports[rng.Intn(len(viewports))]
				view, version := ls.Snapshot()
				var res Result
				var err error
				buf, res, err = c.AppendSelectJSON(ctx, view, version, region, 12, 0.01*region.Width(), buf[:0])
				if err != nil {
					t.Error(err)
					return
				}
				checkBodyAgainstView(t, buf, view, region)
				if t.Failed() {
					return
				}
				served.Add(1)
				if !res.Fallback && res.TileMisses == 0 {
					warm.Add(1)
				}
			}
		}(int64(43 + r))
	}
	wg.Wait()
	if !t.Failed() && (served.Load() == 0 || warm.Load() == 0) {
		t.Errorf("%d bodies checked, %d of them fully warm: the test measured nothing", served.Load(), warm.Load())
	}
}

// TestChurnCompactionRecomputesCachedTiles: an entry is served only
// while the pinned view's dirty history covers every epoch since the
// entry was last validated. A compaction renumbers every position, and
// a history truncated past the entry says nothing; in both cases the
// tiles are recomputed, even though no epoch dirtied them, and the body
// is what a fresh cache serves.
func TestChurnCompactionRecomputesCachedTiles(t *testing.T) {
	ctx := context.Background()
	// The viewport's zoom-3 tiles cover [0.5, 0.875]²; every epoch below
	// dirties only cells left of x = 0.45 or around (0.1, 0.1).
	region := geo.Rect{Min: geo.Pt(0.6, 0.6), Max: geo.Pt(0.85, 0.82)}
	theta := 0.003 * region.Width()
	const k = 12
	serve := func(t *testing.T, c *Cache, ls *livestore.Store) ([]byte, Result) {
		t.Helper()
		view, version := ls.Snapshot()
		body, res, err := c.AppendSelectJSON(ctx, view, version, region, k, theta, nil)
		if err != nil || res.Fallback {
			t.Fatalf("serve at v%d: err=%v fallback=%v", version, err, res.Fallback)
		}
		checkBodyAgainstView(t, body, view, region)
		return body, res
	}
	// recomputed serves the viewport again and requires every covering
	// tile computed at the serving version, an invalidation counted, and
	// the body a fresh cache serves.
	recomputed := func(t *testing.T, c *Cache, ls *livestore.Store, invalidated uint64) {
		t.Helper()
		body, res := serve(t, c, ls)
		if res.TileMisses != res.Tiles {
			t.Errorf("%d of %d covering tiles served from the cache", res.Tiles-res.TileMisses, res.Tiles)
		}
		if got := c.Stats().Invalidations; got <= invalidated {
			t.Errorf("invalidations %d → %d: no entry was dropped", invalidated, got)
		}
		view, version := ls.Snapshot()
		z := zoomFor(region.Side())
		x0, y0, x1, y1, _ := coverRange(region, z)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				payload, _, err := c.TilePayload(ctx, view, version, int(z), int(x), int(y), theta, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d, err := DecodeTile(payload); err != nil || d.Version != version {
					t.Errorf("tile (%d, %d, %d) computed at v%d, want v%d (err %v)", z, x, y, d.Version, version, err)
				}
			}
		}
		fresh, _ := serve(t, newTestCache(t, engine.Config{}), ls)
		if !bytes.Equal(body, fresh) {
			t.Errorf("body differs from a fresh cache's:\n got %s\nwant %s", body, fresh)
		}
	}

	t.Run("compaction", func(t *testing.T) {
		ls, err := livestore.New(testCollection(3000, 5), engine.Config{Metric: sim.Cosine{}})
		if err != nil {
			t.Fatal(err)
		}
		c := newTestCache(t, engine.Config{})
		serve(t, c, ls)
		// Kill the objects left of x = 0.45 (far more than a quarter of
		// the slots): a plain epoch that leaves the viewport's tiles
		// clean and warm.
		view, _ := ls.Snapshot()
		var dels []livestore.Mutation
		for _, o := range view.Collection().Objects {
			if o.Loc.X < 0.45 {
				dels = append(dels, livestore.Mutation{Op: livestore.OpDelete, ID: o.ID})
			}
		}
		if 4*len(dels) < view.Collection().Len() {
			t.Fatalf("%d deletes of %d slots cannot trigger a compaction", len(dels), view.Collection().Len())
		}
		applyEpoch(t, ls, dels)
		if _, res := serve(t, c, ls); res.TileMisses != 0 {
			t.Fatalf("%d tiles recomputed by deletes outside them", res.TileMisses)
		}
		// The seed array holds exactly its objects, so one insert
		// overflows it and the dead quarter compacts it.
		invalidated := c.Stats().Invalidations
		applyEpoch(t, ls, []livestore.Mutation{{Op: livestore.OpInsert, ID: 1 << 20, Loc: geo.Pt(0.1, 0.1), Weight: 0.5, Text: "far away"}})
		if n := ls.Stats().Compactions; n != 1 {
			t.Fatalf("%d compactions, want 1", n)
		}
		recomputed(t, c, ls, invalidated)
	})

	t.Run("truncated history", func(t *testing.T) {
		ls, err := livestore.New(testCollection(3000, 5), engine.Config{Metric: sim.Cosine{}})
		if err != nil {
			t.Fatal(err)
		}
		c := newTestCache(t, engine.Config{})
		serve(t, c, ls)
		_, v0 := ls.Snapshot()
		// Clean epochs: each moves one far object within the far cell,
		// until the history no longer reaches back to the entries.
		view, _ := ls.Snapshot()
		id := view.Collection().Objects[view.Region(geo.Rect{Min: geo.Pt(0.05, 0.05), Max: geo.Pt(0.15, 0.15)})[0]].ID
		for i := 0; ; i++ {
			if _, covered := ls.Current().DirtyCells(v0, nil); !covered {
				if i <= 128 {
					t.Fatalf("history truncated after %d epochs", i)
				}
				break
			}
			applyEpoch(t, ls, []livestore.Mutation{{
				Op: livestore.OpUpdate, ID: id, Loc: geo.Pt(0.1+1e-4*float64(i%2), 0.1), Weight: 0.5, Text: "far away",
			}})
		}
		if n := ls.Stats().Compactions; n != 0 {
			t.Fatalf("%d compactions: the entries would be dropped by those, not by the truncation", n)
		}
		recomputed(t, c, ls, c.Stats().Invalidations)
	})
}
