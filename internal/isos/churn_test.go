package isos

// Version-awareness tests for live stores: stale prefetch discard,
// repin filtering and translation across compactions,
// and the matrix proving a mutation-free live store selects
// bitwise-identically to the static store engine given the same region
// order. Named *Churn* so CI's churn-stress job
// (`go test -race -run Churn -tags geoselcheck`) picks them up.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/livestore"
)

func testLiveStore(t *testing.T, n int, seed int64) *livestore.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	col := geodata.NewCollection()
	words := []string{"cafe", "bar", "park", "gym", "zoo", "pier", "dock", "inn"}
	for i := 0; i < n; i++ {
		text := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		col.Add(i, geo.Pt(rng.Float64(), rng.Float64()), rng.Float64(), text)
	}
	ls, err := livestore.New(col, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// oneInsert is the minimal version-advancing mutation batch.
func oneInsert(id int) []livestore.Mutation {
	return []livestore.Mutation{{
		Op: livestore.OpInsert, ID: id,
		Loc: geo.Pt(0.987, 0.013), Weight: 0.5, Text: "cafe pier",
	}}
}

// TestChurnStalePrefetchDiscardedSync: bounds computed against a
// version that an ingested epoch has since replaced must not seed the
// lazy heap, while the identical navigation without the intervening
// epoch must (positive control — proves the discard is the version
// check, not a prefetch miss). The installed prefetchState records its
// version, and prefetchBounds refuses it once an epoch lands.
func TestChurnStalePrefetchDiscardedSync(t *testing.T) {
	ctx := context.Background()
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.2)
	inner := region.ScaleAroundCenter(0.5)

	run := func(mutate bool) *Selection {
		ls := testLiveStore(t, 1200, 42)
		s, err := NewSession(ls, testConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Start(ctx, region); err != nil {
			t.Fatal(err)
		}
		if err := s.Prefetch(ctx); err != nil {
			t.Fatal(err)
		}
		if mutate {
			if _, _, err := ls.Apply(ctx, oneInsert(100000)); err != nil {
				t.Fatal(err)
			}
		}
		sel, err := s.ZoomIn(ctx, inner)
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}

	if sel := run(false); !sel.Prefetched {
		t.Fatal("positive control: synchronous prefetch was not used")
	}
	if sel := run(true); sel.Prefetched {
		t.Fatal("stale synchronous prefetch survived an ingested epoch")
	}
}

// TestChurnRepinFiltersVisible: after an epoch deletes displayed
// objects, the next navigation repins and the session's visible set and
// history must only reference positions live in the new snapshot.
func TestChurnRepinFiltersVisible(t *testing.T) {
	ctx := context.Background()
	ls := testLiveStore(t, 3000, 43)
	s, err := NewSession(ls, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.25)
	sel, err := s.Start(ctx, region)
	if err != nil {
		t.Fatal(err)
	}

	objs := ls.Current().Collection().Objects
	var muts []livestore.Mutation
	for _, p := range sel.Positions[:len(sel.Positions)/2] {
		muts = append(muts, livestore.Mutation{Op: livestore.OpDelete, ID: objs[p].ID})
	}
	if _, out, err := ls.Apply(ctx, muts); err != nil || out.Deleted != len(muts) {
		t.Fatalf("delete: out=%+v err=%v", out, err)
	}

	if _, err := s.ZoomIn(ctx, region.ScaleAroundCenter(0.6)); err != nil {
		t.Fatal(err)
	}
	lv := s.view.(geodata.LiveView)
	for _, p := range s.visible {
		if _, ok := lv.LivePos(p, s.version); !ok {
			t.Fatalf("visible position %d is dead in the repinned view", p)
		}
	}
	for i, h := range s.history {
		for _, p := range h.visible {
			if _, ok := lv.LivePos(p, s.version); !ok {
				t.Fatalf("history[%d] position %d is dead in the repinned view", i, p)
			}
		}
	}
	if s.visibleVersion != s.version {
		t.Fatalf("visibleVersion %d != pinned version %d after navigation", s.visibleVersion, s.version)
	}
}

// compactOnce churns the objects whose IDs are in far, moving each
// within the strip x < 0.1, until the store compacts once more.
func compactOnce(t *testing.T, ls *livestore.Store, far []int, rng *rand.Rand) {
	t.Helper()
	want := ls.Stats().Compactions + 1
	for ls.Stats().Compactions < want {
		muts := make([]livestore.Mutation, 100)
		for i := range muts {
			muts[i] = livestore.Mutation{Op: livestore.OpUpdate, ID: far[rng.Intn(len(far))],
				Loc: geo.Pt(0.1*rng.Float64(), rng.Float64()), Weight: rng.Float64(), Text: "dock moved"}
		}
		if _, _, err := ls.Apply(context.Background(), muts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChurnSessionAcrossCompactions navigates a session while churn far
// from its viewport compacts the store. Across one compaction the
// visible set and history are carried onto the renumbered positions of
// the same objects, and the step honors the consistency constraints
// against that carried set. Across two compactions without a
// navigation in between the session has nothing to carry — its pinned
// positions predate the previous compaction — so it drops its visible
// set and history, as if every pinned object had died, and the step is
// consistent against the empty set.
func TestChurnSessionAcrossCompactions(t *testing.T) {
	ctx := context.Background()
	ls := testLiveStore(t, 3000, 46)
	var far []int
	for _, o := range ls.Current().Collection().Objects {
		if o.Loc.X < 0.15 {
			far = append(far, o.ID)
		}
	}
	rng := rand.New(rand.NewSource(47))
	s, err := NewSession(ls, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.2)
	if _, err := s.Start(ctx, region); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ZoomIn(ctx, region.ScaleAroundCenter(0.8)); err != nil {
		t.Fatal(err)
	}
	locate := func(p int) geo.Point { return s.view.Collection().Objects[p].Loc }

	// One compaction.
	oldRegion, oldVisible, pinned := s.Viewport().Region, s.Visible(), s.version
	oldHistory := append([]int(nil), s.history[0].visible...)
	compactOnce(t, ls, far, rng)
	cur := ls.Current()
	carry := func(pos []int) []int {
		var out []int
		for _, p := range pos {
			q, ok := cur.LivePos(p, pinned)
			if !ok {
				t.Fatalf("position %d of an untouched object did not survive the compaction", p)
			}
			out = append(out, q)
		}
		return out
	}
	carried, carriedHistory := carry(oldVisible), carry(oldHistory)
	moved := false
	for i := range carried {
		moved = moved || carried[i] != oldVisible[i]
	}
	if !moved {
		t.Fatal("the compaction renumbered none of the visible positions; the test proves nothing")
	}
	newRegion := oldRegion.ScaleAroundCenter(0.7)
	sel, err := s.ZoomIn(ctx, newRegion)
	if err != nil {
		t.Fatal(err)
	}
	if s.version != cur.Version() {
		t.Fatalf("session pinned version %d, want the compaction epoch %d", s.version, cur.Version())
	}
	if err := CheckTransition(geo.OpZoomIn, oldRegion, newRegion, carried, sel.Positions, locate); err != nil {
		t.Fatalf("across one compaction: %v", err)
	}
	if got := s.history[len(s.history)-1].visible; !equalInts(got, carried) {
		t.Fatalf("history's newest entry %v, want the carried visible set %v", got, carried)
	}
	if got := s.history[0].visible; !equalInts(got, carriedHistory) {
		t.Fatalf("history's oldest entry %v, want it carried to %v", got, carriedHistory)
	}

	// Two compactions between navigations.
	oldRegion = s.Viewport().Region
	compactOnce(t, ls, far, rng)
	compactOnce(t, ls, far, rng)
	sel, err = s.Pan(ctx, geo.Pt(0.02, -0.01))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTransition(geo.OpPan, oldRegion, s.Viewport().Region, nil, sel.Positions, locate); err != nil {
		t.Fatalf("across two compactions: %v", err)
	}
	if sel.ForcedCount != 0 {
		t.Fatalf("%d objects forced from a visible set pinned before the previous compaction", sel.ForcedCount)
	}
	for i, h := range s.history {
		if len(h.visible) != 0 {
			t.Fatalf("history[%d] kept %d positions pinned before the previous compaction", i, len(h.visible))
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChurnFreeLiveStoreMatchesStaticMatrix is the "no mutations →
// bitwise identical" criterion: the same exploration over a static
// store and over an untouched live store must produce equal Positions
// and bit-for-bit equal Scores with and without a Prefetch before each
// step. Both stores read the same grid (geodata.Grid) and answer
// every region in ascending order, so both stage every region alike.
func TestChurnFreeLiveStoreMatchesStaticMatrix(t *testing.T) {
	const n, seed = 1500, 44
	rng := rand.New(rand.NewSource(seed))
	col := geodata.NewCollection()
	words := []string{"cafe", "bar", "park", "gym", "zoo", "pier", "dock", "inn"}
	for i := 0; i < n; i++ {
		text := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		col.Add(i, geo.Pt(rng.Float64(), rng.Float64()), rng.Float64(), text)
	}
	static, err := geodata.NewStore(col)
	if err != nil {
		t.Fatal(err)
	}
	live, err := livestore.New(col, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}

	type navResult struct {
		positions []int
		score     float64
	}
	explore := func(src geodata.Source, cfg Config, prefetch bool) []navResult {
		s, err := NewSession(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var out []navResult
		record := func(sel *Selection, err error) {
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, navResult{append([]int(nil), sel.Positions...), sel.Score})
			if prefetch {
				if err := s.Prefetch(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		region := geo.RectAround(geo.Pt(0.5, 0.5), 0.3)
		record(s.Start(ctx, region))
		record(s.ZoomIn(ctx, s.Viewport().Region.ScaleAroundCenter(0.6)))
		record(s.Pan(ctx, geo.Pt(0.03, -0.02)))
		record(s.ZoomOut(ctx, s.Viewport().Region.ScaleAroundCenter(1.5)))
		record(s.Pan(ctx, geo.Pt(-0.05, 0.04)))
		return out
	}

	for _, prefetch := range []bool{false, true} {
		name := fmt.Sprintf("prefetch=%v", prefetch)
		cfg := testConfig(t)
		want := explore(static, cfg, prefetch)
		got := explore(live, cfg, prefetch)
		if len(got) != len(want) {
			t.Fatalf("%s: %d steps vs %d", name, len(got), len(want))
		}
		for i := range want {
			if len(got[i].positions) != len(want[i].positions) {
				t.Fatalf("%s step %d: %d positions vs %d", name, i, len(got[i].positions), len(want[i].positions))
			}
			for j := range want[i].positions {
				if got[i].positions[j] != want[i].positions[j] {
					t.Fatalf("%s step %d: positions differ at %d: %d vs %d",
						name, i, j, got[i].positions[j], want[i].positions[j])
				}
			}
			if got[i].score != want[i].score {
				t.Fatalf("%s step %d: score %v vs %v (must be bitwise equal)",
					name, i, got[i].score, want[i].score)
			}
		}
	}
}
