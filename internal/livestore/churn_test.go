package livestore_test

// Snapshot-isolation tests: sessions navigating while the store ingests
// and compacts concurrently. These run under -race in CI (the
// churn-stress job runs `go test -race -run 'Churn|Compaction' -tags
// geoselcheck` over the live packages): epoch pinning
// means the navigation path takes no locks, so any missing
// happens-before edge between the writer and a reader is a race-report,
// not a flake.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"geosel/internal/core"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/isos"
	"geosel/internal/livestore"
	"geosel/internal/sim"
)

func churnCollection(t *testing.T, n int, seed int64) *geodata.Collection {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	col := geodata.NewCollection()
	for i := 0; i < n; i++ {
		col.Add(i, geo.Pt(rng.Float64(), rng.Float64()), rng.Float64(),
			fmt.Sprintf("cafe bar term%d term%d", i%11, i%29))
	}
	return col
}

// churnMutations derives n mutations from the base collection, in a
// 3:4:3 mix of inserts, updates and deletes drawn from seed. Inserts
// clone a random base object's text and perturb its location (new
// points stay plausible under the base's spatial/textual skew without
// re-running the full generator); updates move a live object by a
// small delta and re-draw its weight; deletes remove a live object.
// Updates and deletes only ever target IDs that are live at that point
// of the sequence, so applying it to the base collection yields
// Outcome.Missed == 0; inserts mint fresh IDs, so the live count stays
// near the base size.
func churnMutations(t *testing.T, col *geodata.Collection, n int, seed int64) []livestore.Mutation {
	t.Helper()
	if len(col.Objects) == 0 {
		t.Fatal("churn needs a non-empty base collection")
	}
	const iw, uw, dw = 3, 4, 3
	rng := rand.New(rand.NewSource(seed))

	bounds, _ := col.Bounds()
	// Perturbation scale: a small fraction of the world, so churn stays
	// inside the spatial structure rather than teleporting objects.
	step := 0.01 * (bounds.Width() + bounds.Height())
	if step <= 0 {
		step = 1e-3
	}

	type state struct {
		loc    geo.Point
		weight float64
		text   string
	}
	liveIDs := make([]int, 0, len(col.Objects))
	liveAt := make(map[int]int, len(col.Objects)) // id -> index in liveIDs
	objects := make(map[int]state, len(col.Objects))
	nextID := 0
	for _, o := range col.Objects {
		liveAt[o.ID] = len(liveIDs)
		liveIDs = append(liveIDs, o.ID)
		objects[o.ID] = state{loc: o.Loc, weight: o.Weight, text: o.Text}
		if o.ID >= nextID {
			nextID = o.ID + 1
		}
	}
	dropLive := func(id int) {
		i := liveAt[id]
		last := len(liveIDs) - 1
		liveIDs[i] = liveIDs[last]
		liveAt[liveIDs[i]] = i
		liveIDs = liveIDs[:last]
		delete(liveAt, id)
	}
	clamp := func(v, lo, hi float64) float64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	perturb := func(p geo.Point) geo.Point {
		return geo.Pt(
			clamp(p.X+rng.NormFloat64()*step, bounds.Min.X, bounds.Max.X),
			clamp(p.Y+rng.NormFloat64()*step, bounds.Min.Y, bounds.Max.Y),
		)
	}

	out := make([]livestore.Mutation, 0, n)
	for range n {
		r := rng.Float64() * (iw + uw + dw)
		var m livestore.Mutation
		switch {
		case r < iw || len(liveIDs) == 0:
			tmpl := col.Objects[rng.Intn(len(col.Objects))]
			id := nextID
			nextID++
			st := state{loc: perturb(tmpl.Loc), weight: rng.Float64(), text: tmpl.Text}
			m = livestore.Mutation{Op: livestore.OpInsert, ID: id, Loc: st.loc, Weight: st.weight, Text: st.text}
			liveAt[id] = len(liveIDs)
			liveIDs = append(liveIDs, id)
			objects[id] = st
		case r < iw+uw:
			id := liveIDs[rng.Intn(len(liveIDs))]
			st := objects[id]
			st.loc = perturb(st.loc)
			st.weight = rng.Float64()
			m = livestore.Mutation{Op: livestore.OpUpdate, ID: id, Loc: st.loc, Weight: st.weight, Text: st.text}
			objects[id] = st
		default:
			id := liveIDs[rng.Intn(len(liveIDs))]
			m = livestore.Mutation{Op: livestore.OpDelete, ID: id}
			dropLive(id)
			delete(objects, id)
		}
		out = append(out, m)
	}
	return out
}

func churnSessionCfg(k int) isos.Config {
	return isos.Config{Config: engine.Config{
		K: k, ThetaFrac: 0.01, Metric: sim.Cosine{},
	}}
}

// navScript drives one fixed exploration and returns each step's
// positions.
func navScript(t *testing.T, s *isos.Session) [][]int {
	t.Helper()
	ctx := context.Background()
	var out [][]int
	step := func(sel *isos.Selection, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]int(nil), sel.Positions...))
	}
	step(s.Start(ctx, geo.RectAround(geo.Pt(0.5, 0.5), 0.3)))
	region := s.Viewport().Region
	step(s.ZoomIn(ctx, region.ScaleAroundCenter(0.6)))
	step(s.Pan(ctx, geo.Pt(0.05, 0.02)))
	region = s.Viewport().Region
	step(s.ZoomOut(ctx, region.ScaleAroundCenter(1.4)))
	step(s.Pan(ctx, geo.Pt(-0.04, 0.03)))
	return out
}

// TestChurnNavigateWhileIngesting is the core race test: one session
// owner navigating, one writer applying mutation batches, no
// synchronization between them beyond the store's snapshot publication.
// Every selection must resolve against the session's pinned view with
// all positions live there. A Prefetch before every step puts the
// version check on the session's prefetch state under concurrent
// ingest.
func TestChurnNavigateWhileIngesting(t *testing.T) {
	// Sized for the race detector: the prefetch before every step
	// recomputes Lemma bounds, which is the dominant cost here.
	col := churnCollection(t, 800, 1)
	muts := churnMutations(t, col, 2000, 2)
	ls, err := livestore.New(col, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		const batch = 32
		for lo := 0; ctx.Err() == nil; lo = (lo + batch) % (len(muts) - batch) {
			if _, _, err := ls.Apply(ctx, muts[lo:lo+batch]); err != nil {
				return
			}
		}
	}()

	s, err := isos.NewSession(ls, churnSessionCfg(12))
	if err != nil {
		t.Fatal(err)
	}
	nav := context.Background()
	if _, err := s.Start(nav, geo.RectAround(geo.Pt(0.5, 0.5), 0.3)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		if err := s.Prefetch(nav); err != nil {
			t.Fatal(err)
		}
		region := s.Viewport().Region
		var sel *isos.Selection
		var err error
		switch i % 3 {
		case 0:
			sel, err = s.ZoomIn(nav, region.ScaleAroundCenter(0.7))
		case 1:
			sel, err = s.Pan(nav, geo.Pt((rng.Float64()-0.5)*0.1*region.Width(), (rng.Float64()-0.5)*0.1*region.Height()))
		default:
			sel, err = s.ZoomOut(nav, region.ScaleAroundCenter(1.3))
		}
		if err != nil {
			t.Fatal(err)
		}
		view, ver := s.View()
		lv := view.(geodata.LiveView)
		for _, p := range sel.Positions {
			if q, ok := lv.LivePos(p, ver); !ok || q != p {
				t.Fatalf("step %d: selected position %d is not live in the pinned view", i, p)
			}
		}
	}
	cancel()
	wg.Wait()
}

// TestChurnFrozenSnapshotIdentity: a session over Freeze(V) selects
// bitwise-identically no matter how much churn the parent store absorbs
// concurrently — the "frozen copy of version V" acceptance criterion.
func TestChurnFrozenSnapshotIdentity(t *testing.T) {
	col := churnCollection(t, 2000, 4)
	muts := churnMutations(t, col, 4000, 5)
	ls, err := livestore.New(col, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Advance to some version V > 0, then freeze it.
	if _, _, err := ls.Apply(ctx, muts[:500]); err != nil {
		t.Fatal(err)
	}
	frozen := livestore.Freeze(ls.Current())

	run := func() [][]int {
		s, err := isos.NewSession(frozen, churnSessionCfg(15))
		if err != nil {
			t.Fatal(err)
		}
		return navScript(t, s)
	}
	before := run()

	// Churn the parent store concurrently with a second frozen run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for lo := 500; lo+50 <= len(muts); lo += 50 {
			if _, _, err := ls.Apply(ctx, muts[lo:lo+50]); err != nil {
				return
			}
		}
	}()
	during := run()
	<-done
	after := run()

	for run, got := range map[string][][]int{"during-churn": during, "after-churn": after} {
		if len(got) != len(before) {
			t.Fatalf("%s: step count %d vs %d", run, len(got), len(before))
		}
		for i := range before {
			if !equalPositions(before[i], got[i]) {
				t.Fatalf("%s: step %d selections differ: %v vs %v", run, i, before[i], got[i])
			}
		}
	}
}

// TestChurnDeletedObjectsNeverAppear deletes a block of objects and
// asserts no later selection (any op, any session) ever shows them.
func TestChurnDeletedObjectsNeverAppear(t *testing.T) {
	col := churnCollection(t, 2000, 6)
	ls, err := livestore.New(col, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	s, err := isos.NewSession(ls, churnSessionCfg(25))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := s.Start(ctx, geo.RectAround(geo.Pt(0.5, 0.5), 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Positions) == 0 {
		t.Fatal("empty start selection")
	}

	// Delete every currently displayed object (by external ID).
	view, _ := s.View()
	objs := view.Collection().Objects
	deleted := make(map[int]bool)
	var muts []livestore.Mutation
	for _, p := range sel.Positions {
		deleted[objs[p].ID] = true
		muts = append(muts, livestore.Mutation{Op: livestore.OpDelete, ID: objs[p].ID})
	}
	if _, out, err := ls.Apply(ctx, muts); err != nil || out.Deleted != len(muts) {
		t.Fatalf("delete batch: out=%+v err=%v", out, err)
	}

	region := s.Viewport().Region
	checks := []func() (*isos.Selection, error){
		func() (*isos.Selection, error) { return s.ZoomIn(ctx, region.ScaleAroundCenter(0.8)) },
		func() (*isos.Selection, error) { return s.Pan(ctx, geo.Pt(0.01, 0.01)) },
		func() (*isos.Selection, error) { return s.ZoomOut(ctx, s.Viewport().Region.ScaleAroundCenter(1.2)) },
	}
	for i, op := range checks {
		sel, err := op()
		if err != nil {
			t.Fatal(err)
		}
		view, _ := s.View()
		vobjs := view.Collection().Objects
		for _, p := range sel.Positions {
			if deleted[vobjs[p].ID] {
				t.Fatalf("op %d: deleted id %d reappeared at position %d", i, vobjs[p].ID, p)
			}
		}
	}

	// A fresh session sees none of them either.
	s2, err := isos.NewSession(ls, churnSessionCfg(25))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sel2, err := s2.Start(ctx, geo.RectAround(geo.Pt(0.5, 0.5), 0.4))
	if err != nil {
		t.Fatal(err)
	}
	view2, _ := s2.View()
	for _, p := range sel2.Positions {
		if deleted[view2.Collection().Objects[p].ID] {
			t.Fatal("deleted object appeared in a fresh session")
		}
	}
}

// TestChurnConcurrentReadersOneWriter hammers snapshot reads from many
// goroutines while a writer commits epochs — pure View usage, no
// sessions — to give the race detector the widest read/write overlap.
func TestChurnConcurrentReadersOneWriter(t *testing.T) {
	col := churnCollection(t, 1500, 7)
	muts := churnMutations(t, col, 3000, 8)
	ls, err := livestore.New(col, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for ctx.Err() == nil {
				view, ver := ls.Snapshot()
				q := geo.RectAround(geo.Pt(rng.Float64(), rng.Float64()), 0.1)
				pos := view.Region(q)
				objs := view.Collection().Objects
				for _, p := range pos {
					if !q.Contains(objs[p].Loc) {
						t.Errorf("version %d: position %d outside query region", ver, p)
						return
					}
				}
				view.CountRegion(q)
			}
		}(int64(100 + r))
	}
	for lo := 0; lo+16 <= len(muts); lo += 16 {
		if _, _, err := ls.Apply(ctx, muts[lo:lo+16]); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	wg.Wait()
}

// TestChurnCapacityPlateaus upserts ten times the seed size in random
// batches while readers query concurrently. The store compacts again
// and again, and after every commit its capacity stays within twice the
// live count plus one batch. Every snapshot keeps answering from its own
// epoch, a snapshot frozen before the churn reads what it read then,
// and each compaction carries the positions pinned just before it onto
// the same objects.
func TestChurnCapacityPlateaus(t *testing.T) {
	const n, batch = 1000, 64
	col := churnCollection(t, n, 9)
	ls, err := livestore.New(col, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	world := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)}
	frozen := ls.Current()
	frozenRegion := frozen.Region(world)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for ctx.Err() == nil {
				sn := ls.Current()
				q := geo.RectAround(geo.Pt(rng.Float64(), rng.Float64()), 0.2)
				objs := sn.Collection().Objects
				for _, p := range sn.Region(q) {
					if !q.Contains(objs[p].Loc) {
						t.Errorf("version %d: position %d outside the query", sn.Version(), p)
						return
					}
					if got, ok := sn.LivePos(p, sn.Version()); !ok || got != p {
						t.Errorf("version %d: region position %d not live in its own snapshot", sn.Version(), p)
						return
					}
				}
			}
		}(int64(20 + r))
	}

	rng := rand.New(rand.NewSource(10))
	for done := 0; done < 10*n; done += batch {
		before := ls.Current()
		compactions := ls.Stats().Compactions
		muts := make([]livestore.Mutation, batch)
		for i := range muts {
			muts[i] = livestore.Mutation{Op: livestore.OpInsert, ID: rng.Intn(n),
				Loc: geo.Pt(rng.Float64(), rng.Float64()), Weight: rng.Float64(), Text: "cafe upsert"}
		}
		if _, _, err := ls.Apply(ctx, muts); err != nil {
			t.Fatal(err)
		}
		st := ls.Stats()
		if st.Live != n {
			t.Fatalf("after %d upserts: %d live, want %d", done+batch, st.Live, n)
		}
		if st.Capacity > 2*st.Live+batch {
			t.Fatalf("after %d upserts: capacity %d above 2 x %d live + %d", done+batch, st.Capacity, st.Live, batch)
		}
		if st.Compactions == compactions {
			continue
		}
		cur := ls.Current()
		bobjs, cobjs := before.Collection().Objects, cur.Collection().Objects
		for p := range bobjs {
			q, ok := cur.LivePos(p, before.Version())
			if ok && (cobjs[q].ID != bobjs[p].ID || cobjs[q].Loc != bobjs[p].Loc || cobjs[q].Weight != bobjs[p].Weight) {
				t.Fatalf("compaction at version %d: position %d carried to %d holds another object", cur.Version(), p, q)
			}
		}
	}
	cancel()
	wg.Wait()

	if st := ls.Stats(); st.Compactions < 5 {
		t.Fatalf("%d compactions over %d upserts, want several", st.Compactions, 10*n)
	}
	if got := frozen.Region(world); !equalPositions(got, frozenRegion) {
		t.Fatal("a snapshot frozen before the churn changed its region answer")
	}
}

// TestChurnSelectionBitwiseAcrossCompaction: a compaction keeps the
// survivors' relative order, so a region untouched by the compacting
// churn stages the same objects in the same order and selects bit for
// bit the same — positions carried through LivePos, gains, score and
// evaluation count.
func TestChurnSelectionBitwiseAcrossCompaction(t *testing.T) {
	const n = 2000
	col := churnCollection(t, n, 11)
	ls, err := livestore.New(col, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	region := geo.Rect{Min: geo.Pt(0.3, 0.3), Max: geo.Pt(0.7, 0.7)}
	// Churn only objects outside the region, moving them to the corner
	// strip so the region's object set never changes.
	var outside []int
	for _, o := range col.Objects {
		if !region.Contains(o.Loc) {
			outside = append(outside, o.ID)
		}
	}
	cfg := engine.Config{Metric: sim.Cosine{}}
	selectAt := func(sn *livestore.Snapshot) core.RegionResult {
		t.Helper()
		res, err := core.SelectRegion(context.Background(), cfg, sn.Collection(), sn.Region(region),
			20, 0.01, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(12))
	for ls.Stats().Compactions == 0 {
		muts := make([]livestore.Mutation, 50)
		for i := range muts {
			muts[i] = livestore.Mutation{Op: livestore.OpUpdate, ID: outside[rng.Intn(len(outside))],
				Loc: geo.Pt(0.05*rng.Float64(), rng.Float64()), Weight: rng.Float64(), Text: "bar moved"}
		}
		before := ls.Current()
		want := selectAt(before)
		if _, _, err := ls.Apply(ctx, muts); err != nil {
			t.Fatal(err)
		}
		if ls.Stats().Compactions == 0 {
			continue
		}
		after := ls.Current()
		got := selectAt(after)
		if len(got.Positions) != len(want.Positions) || got.Evals != want.Evals || got.Score != want.Score {
			t.Fatalf("across compaction: %d picks, %d evals, score %v; want %d, %d, %v",
				len(got.Positions), got.Evals, got.Score, len(want.Positions), want.Evals, want.Score)
		}
		for i, p := range want.Positions {
			if q, ok := after.LivePos(p, before.Version()); !ok || q != got.Positions[i] {
				t.Fatalf("pick %d: position %d carried to (%d, %v), selected %d", i, p, q, ok, got.Positions[i])
			}
			if got.Gains[i] != want.Gains[i] {
				t.Fatalf("pick %d: gain %v vs %v (must be bitwise equal)", i, got.Gains[i], want.Gains[i])
			}
		}
		if len(after.Collection().Objects) >= len(before.Collection().Objects) {
			t.Fatal("compaction did not shrink the slot array")
		}
	}
}

func equalPositions(a, b []int) bool {
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
