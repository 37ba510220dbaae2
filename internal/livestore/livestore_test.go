package livestore

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
)

func testCollection(t *testing.T, n int, seed int64) *geodata.Collection {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	col := geodata.NewCollection()
	for i := 0; i < n; i++ {
		col.Add(i, geo.Pt(rng.Float64(), rng.Float64()), rng.Float64(),
			fmt.Sprintf("poi term%d term%d", i%7, i%13))
	}
	return col
}

func mustNew(t *testing.T, col *geodata.Collection) *Store {
	t.Helper()
	s, err := New(col, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// isLive reports whether position i is live in sn's own position space.
func isLive(sn *Snapshot, i int) bool {
	_, ok := sn.LivePos(i, sn.Version())
	return ok
}

// refRegion is the reference implementation Region is checked against:
// a linear scan over live slots, ascending.
func refRegion(sn *Snapshot, r geo.Rect) []int {
	var out []int
	for i, o := range sn.Collection().Objects {
		if isLive(sn, i) && r.Contains(o.Loc) {
			out = append(out, i)
		}
	}
	return out
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

func TestApplySemantics(t *testing.T) {
	ctx := context.Background()
	s := mustNew(t, testCollection(t, 10, 1))

	v, out, err := s.Apply(ctx, []Mutation{
		{Op: OpInsert, ID: 100, Loc: geo.Pt(0.5, 0.5), Weight: 0.5, Text: "new"},
		{Op: OpUpdate, ID: 3, Loc: geo.Pt(0.1, 0.1), Weight: 0.9, Text: "moved"},
		{Op: OpDelete, ID: 7},
		{Op: OpDelete, ID: 999}, // missing -> Missed
		{Op: OpInsert, ID: 3, Loc: geo.Pt(0.2, 0.2), Weight: 0.3, Text: "upsert"}, // live -> update
		{Op: OpUpdate, ID: 888, Loc: geo.Pt(0, 0), Weight: 0.1},                   // missing -> Missed
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("version = %d, want 1", v)
	}
	want := Outcome{Inserted: 1, Updated: 2, Deleted: 1, Missed: 2}
	if out != want {
		t.Fatalf("outcome = %+v, want %+v", out, want)
	}
	sn := s.Current()
	if sn.Len() != 10 { // 10 seed + 1 insert - 1 delete ... wait: 10 +1 -1 = 10
		t.Fatalf("live = %d, want 10", sn.Len())
	}
	// ID 3 was updated twice: its final state is the upsert's.
	st := s.Stats()
	if st.Slots != 13 { // 10 seed + 1 insert + 2 update appends
		t.Fatalf("slots = %d, want 13", st.Slots)
	}
	if st.DeadSlots != 3 {
		t.Fatalf("dead slots = %d, want 3", st.DeadSlots)
	}
	objs := sn.Collection().Objects
	found := false
	for i := range objs {
		if objs[i].ID == 3 && isLive(sn, i) {
			found = true
			if objs[i].Text != "upsert" || objs[i].Loc != geo.Pt(0.2, 0.2) {
				t.Fatalf("id 3 final state = %+v", objs[i])
			}
		}
	}
	if !found {
		t.Fatal("id 3 not live after update chain")
	}
}

// TestSeedIsReadInPlace: version 0 reads the caller's objects without
// a copy, and no later epoch writes to them.
func TestSeedIsReadInPlace(t *testing.T) {
	col := testCollection(t, 10, 1)
	before := slices.Clone(col.Objects)
	for i := range before {
		before[i].Vec.Words = slices.Clone(before[i].Vec.Words)
	}
	s := mustNew(t, col)
	if v0 := s.Current().Collection().Objects; &v0[0] != &col.Objects[0] || len(v0) != len(col.Objects) {
		t.Fatal("version 0 does not alias the seed collection's objects")
	}
	if _, _, err := s.Apply(context.Background(), []Mutation{
		{Op: OpInsert, ID: 100, Loc: geo.Pt(0.5, 0.5), Weight: 0.5, Text: "new"},
		{Op: OpUpdate, ID: 3, Loc: geo.Pt(0.1, 0.1), Weight: 0.9, Text: "moved"},
		{Op: OpDelete, ID: 7},
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(col.Objects, before) {
		t.Fatal("an epoch wrote to the seed collection's objects")
	}
}

func TestInsertThenDeleteInOneBatch(t *testing.T) {
	ctx := context.Background()
	s := mustNew(t, testCollection(t, 5, 1))
	_, out, err := s.Apply(ctx, []Mutation{
		{Op: OpInsert, ID: 50, Loc: geo.Pt(0.5, 0.5), Weight: 0.5},
		{Op: OpDelete, ID: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Inserted != 1 || out.Deleted != 1 {
		t.Fatalf("outcome = %+v", out)
	}
	sn := s.Current()
	if sn.Len() != 5 {
		t.Fatalf("live = %d, want 5", sn.Len())
	}
	// The staged slot exists but is dead and unindexed.
	if got := refRegion(sn, geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)}); len(got) != 5 {
		t.Fatalf("region sees %d objects, want 5", len(got))
	}
	if isLive(sn, 5) {
		t.Fatal("staged-then-deleted slot reported live")
	}
}

func TestEmptyAndNoopBatchesKeepVersion(t *testing.T) {
	ctx := context.Background()
	s := mustNew(t, testCollection(t, 5, 1))
	if v, _, err := s.Apply(ctx, nil); err != nil || v != 0 {
		t.Fatalf("empty batch: v=%d err=%v, want v=0", v, err)
	}
	if v, out, err := s.Apply(ctx, []Mutation{{Op: OpDelete, ID: 12345}}); err != nil || v != 0 || out.Missed != 1 {
		t.Fatalf("all-missed batch: v=%d out=%+v err=%v, want v=0 missed=1", v, out, err)
	}
	if _, ver := s.Snapshot(); ver != 0 {
		t.Fatalf("published version = %d, want 0", ver)
	}
}

func TestApplyIsAtomicOnInvalidMutation(t *testing.T) {
	ctx := context.Background()
	for name, bad := range map[string]Mutation{
		"weight":        {Op: OpInsert, ID: 51, Loc: geo.Pt(0.5, 0.5), Weight: 1.5},
		"huge location": {Op: OpUpdate, ID: 2, Loc: geo.Pt(1.5e308, 0.5), Weight: 0.5},
		"NaN location":  {Op: OpInsert, ID: 51, Loc: geo.Pt(0.5, math.NaN()), Weight: 0.5},
		"unknown op":    {Op: OpDelete + 1, ID: 2},
	} {
		s := mustNew(t, testCollection(t, 5, 1))
		_, _, err := s.Apply(ctx, []Mutation{
			{Op: OpInsert, ID: 50, Loc: geo.Pt(0.5, 0.5), Weight: 0.5},
			bad,
		})
		if err == nil {
			t.Errorf("%s: want validation error", name)
		}
		if _, ver := s.Snapshot(); ver != 0 {
			t.Errorf("%s: failed batch advanced version to %d", name, ver)
		}
		if s.Current().Len() != 5 {
			t.Errorf("%s: failed batch changed the object set", name)
		}
	}
}

func TestDuplicateSeedIDRejected(t *testing.T) {
	col := geodata.NewCollection()
	col.Add(1, geo.Pt(0.1, 0.1), 0.5, "")
	col.Add(1, geo.Pt(0.2, 0.2), 0.5, "")
	if _, err := New(col, engine.Config{}); err == nil {
		t.Fatal("want duplicate-id error")
	}
}

// The seed is held to the same value contract as a static store's and
// as every later mutation.
func TestInvalidSeedRejected(t *testing.T) {
	for name, o := range map[string]geodata.Object{
		"weight":        {ID: 2, Loc: geo.Pt(0.5, 0.5), Weight: 1.5},
		"NaN location":  {ID: 2, Loc: geo.Pt(math.NaN(), 0.5), Weight: 0.5},
		"huge location": {ID: 2, Loc: geo.Pt(0.5, -1.5e308), Weight: 0.5},
	} {
		col := geodata.NewCollection()
		col.Add(1, geo.Pt(0.1, 0.1), 0.5, "")
		col.Objects = append(col.Objects, o)
		if _, err := New(col, engine.Config{}); err == nil {
			t.Errorf("seed with an invalid %s accepted", name)
		}
	}
}

func TestRegionMatchesReferenceAcrossEpochs(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	s := mustNew(t, testCollection(t, 400, 2))
	queries := []geo.Rect{
		{Min: geo.Pt(0.1, 0.1), Max: geo.Pt(0.4, 0.4)},
		{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)},
		{Min: geo.Pt(0.45, 0.05), Max: geo.Pt(0.55, 0.95)},
		{Min: geo.Pt(0.9, 0.9), Max: geo.Pt(0.99, 0.99)},
	}
	nextID := 1000
	for epoch := 0; epoch < 30; epoch++ {
		var muts []Mutation
		for j := 0; j < 20; j++ {
			switch rng.Intn(3) {
			case 0:
				muts = append(muts, Mutation{Op: OpInsert, ID: nextID, Loc: geo.Pt(rng.Float64(), rng.Float64()), Weight: rng.Float64()})
				nextID++
			case 1:
				muts = append(muts, Mutation{Op: OpUpdate, ID: rng.Intn(nextID), Loc: geo.Pt(rng.Float64(), rng.Float64()), Weight: rng.Float64()})
			default:
				muts = append(muts, Mutation{Op: OpDelete, ID: rng.Intn(nextID)})
			}
		}
		if _, _, err := s.Apply(ctx, muts); err != nil {
			t.Fatal(err)
		}
		sn := s.Current()
		for _, q := range queries {
			got := sn.Region(q)
			want := refRegion(sn, q)
			if !equalInts(got, want) {
				t.Fatalf("epoch %d: Region(%v) = %v, want %v", epoch, q, got, want)
			}
			if c := sn.CountRegion(q); c != len(want) {
				t.Fatalf("epoch %d: CountRegion = %d, want %d", epoch, c, len(want))
			}
		}
	}
}

func TestFreezePinsAVersion(t *testing.T) {
	ctx := context.Background()
	s := mustNew(t, testCollection(t, 50, 3))
	world := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)}
	if _, _, err := s.Apply(ctx, []Mutation{{Op: OpInsert, ID: 500, Loc: geo.Pt(0.5, 0.5), Weight: 0.5}}); err != nil {
		t.Fatal(err)
	}
	frozenSrc := Freeze(s.Current())
	fv, fver := frozenSrc.Snapshot()
	before := append([]int(nil), fv.Region(world)...)

	// Heavy churn after the freeze.
	for i := 0; i < 20; i++ {
		if _, _, err := s.Apply(ctx, []Mutation{
			{Op: OpInsert, ID: 1000 + i, Loc: geo.Pt(0.5, 0.5), Weight: 0.5},
			{Op: OpDelete, ID: i},
		}); err != nil {
			t.Fatal(err)
		}
	}
	fv2, fver2 := frozenSrc.Snapshot()
	if fver2 != fver {
		t.Fatalf("frozen version moved: %d -> %d", fver, fver2)
	}
	if got := fv2.Region(world); !equalInts(got, before) {
		t.Fatal("frozen snapshot's region changed under churn")
	}
	if _, cur := s.Snapshot(); cur == fver {
		t.Fatal("store did not advance")
	}
}

// checkPinned fails unless sn still reads exactly the objects in want.
func checkPinned(t *testing.T, sn *Snapshot, want []geodata.Object) {
	t.Helper()
	got := sn.Collection().Objects
	if len(got) != len(want) {
		t.Fatalf("pinned snapshot went from %d to %d slots", len(want), len(got))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Loc != want[i].Loc || got[i].Text != want[i].Text {
			t.Fatalf("pinned snapshot's slot %d changed", i)
		}
	}
}

// The slot array holds exactly the seed, grows by half while few slots
// are dead, and compacts once a quarter are: the survivors keep their
// relative order, LivePos translates across one compaction and reports
// everything gone across two, DirtyRects fences the compaction epoch,
// and a snapshot pinned before any of it keeps reading its old array.
func TestSlotArrayGrowthAndCompactionPolicy(t *testing.T) {
	ctx := context.Background()
	const n, batch = 8, 5
	s := mustNew(t, testCollection(t, n, 4))
	if st := s.Stats(); st.Capacity != n || cap(s.objs) != n {
		t.Fatalf("seed capacity = %d slots for %d objects, want exactly %d", st.Capacity, n, n)
	}
	pinned := s.Current()
	want := append([]geodata.Object(nil), pinned.Collection().Objects...)

	// Inserts only: nothing is dead, so every overflow grows by half.
	nextID := 100
	regrowths := 0
	for b := 0; b < 20; b++ {
		muts := make([]Mutation, batch)
		for i := range muts {
			muts[i] = Mutation{Op: OpInsert, ID: nextID, Loc: geo.Pt(0.5, 0.5), Weight: 0.5, Text: "late"}
			nextID++
		}
		before := cap(s.objs)
		if _, _, err := s.Apply(ctx, muts); err != nil {
			t.Fatal(err)
		}
		if after := cap(s.objs); after != before {
			regrowths++
			if after < before+before/2 {
				t.Fatalf("batch %d: slot array grew %d -> %d, want at least 1.5x", b, before, after)
			}
		}
	}
	st := s.Stats()
	if st.Compactions != 0 || st.DeadSlots != 0 || st.Slots != n+20*batch {
		t.Fatalf("insert-only stats %+v", st)
	}
	if regrowths != 7 { // 8 -> 13 -> 19 -> 28 -> 42 -> 63 -> 94 -> 141
		t.Fatalf("%d regrowths to reach %d slots from %d, want 7", regrowths, st.Slots, n)
	}
	if st.Capacity > 2*st.Live+batch {
		t.Fatalf("capacity %d above 2 x live %d + one batch", st.Capacity, st.Live)
	}
	checkPinned(t, pinned, want)

	// Updates supersede slots; the overflow that finds a quarter of the
	// array dead compacts instead of growing.
	update := func() (before *Snapshot) {
		t.Helper()
		for {
			before = s.Current()
			compactions := s.Stats().Compactions
			muts := make([]Mutation, batch)
			for i := range muts {
				id := 100 + (int(before.Version())*batch+i)%(nextID-100)
				muts[i] = Mutation{Op: OpUpdate, ID: id, Loc: geo.Pt(0.25, 0.75), Weight: 0.25, Text: "moved"}
			}
			if _, _, err := s.Apply(ctx, muts); err != nil {
				t.Fatal(err)
			}
			if s.Stats().Compactions > compactions {
				return before
			}
		}
	}
	pre := update()
	st = s.Stats()
	if st.DeadSlots != 0 || st.Slots != st.Live || st.Capacity != st.Live+st.Live/2 {
		t.Fatalf("after compaction: %+v, want no dead slots and capacity 1.5 x live", st)
	}
	// The batch's five updates supersede five more live slots.
	if slots, dead := len(pre.Collection().Objects), len(pre.Collection().Objects)-pre.Len()+batch; 4*dead < slots {
		t.Fatalf("compacted with %d of %d slots dead, under a quarter", dead, slots)
	}
	cur := s.Current()
	last := -1
	for p, o := range pre.Collection().Objects {
		q, ok := cur.LivePos(p, pre.Version())
		if !isLive(pre, p) {
			if ok {
				t.Fatalf("dead position %d translated to %d", p, q)
			}
			continue
		}
		if !ok {
			continue // superseded by the compacting batch itself
		}
		if q <= last {
			t.Fatalf("compaction reordered survivors: %d -> %d after %d", p, q, last)
		}
		last = q
		if got := cur.Collection().Objects[q]; got.ID != o.ID || got.Loc != o.Loc || got.Text != o.Text {
			t.Fatalf("position %d translated to %d holding a different object", p, q)
		}
	}
	if _, ok := cur.DirtyRects(pre.Version(), nil); ok {
		t.Fatal("DirtyRects covered an interval across a compaction epoch")
	}
	if _, ok := cur.DirtyRects(cur.Version(), nil); !ok {
		t.Fatal("DirtyRects at the compaction epoch itself reported truncation")
	}
	checkPinned(t, pinned, want)

	// A second compaction: positions pinned between the two translate,
	// positions pinned before the first are gone.
	mid := s.Current()
	update()
	cur = s.Current()
	for p := range pinned.Collection().Objects {
		if _, ok := cur.LivePos(p, pinned.Version()); ok {
			t.Fatalf("position %d pinned before the previous compaction still translates", p)
		}
	}
	translated := 0
	for p := range mid.Collection().Objects {
		if q, ok := cur.LivePos(p, mid.Version()); ok {
			translated++
			if cur.Collection().Objects[q].ID != mid.Collection().Objects[p].ID {
				t.Fatalf("position %d translated to another object", p)
			}
		}
	}
	if translated == 0 {
		t.Fatal("no position survived the second compaction")
	}
	checkPinned(t, pinned, want)
}

// TestParseOpInvertsString: every mutation kind's name parses back to
// it, and an unknown name is an error (what /ingest answers 400 for).
func TestParseOpInvertsString(t *testing.T) {
	for _, op := range []Op{OpInsert, OpUpdate, OpDelete} {
		if got, err := ParseOp(op.String()); err != nil || got != op {
			t.Errorf("ParseOp(%q) = %v, %v", op.String(), got, err)
		}
	}
	if _, err := ParseOp("noop"); err == nil {
		t.Error("unknown op accepted")
	}
}

// TestLargeBatchParallelCommit pushes one batch that dirties hundreds
// of cells through the commit and checks the index against a scan.
func TestLargeBatchParallelCommit(t *testing.T) {
	ctx := context.Background()
	col := testCollection(t, 5000, 5)
	s, err := New(col, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var muts []Mutation
	for i := 0; i < 3000; i++ {
		muts = append(muts, Mutation{Op: OpInsert, ID: 10000 + i, Loc: geo.Pt(rng.Float64(), rng.Float64()), Weight: rng.Float64()})
	}
	if _, _, err := s.Apply(ctx, muts); err != nil {
		t.Fatal(err)
	}
	sn := s.Current()
	world := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)}
	got := sn.Region(world)
	want := refRegion(sn, world)
	if !equalInts(got, want) {
		t.Fatalf("large commit region mismatch: %d vs %d entries", len(got), len(want))
	}
	if !sort.IntsAreSorted(got) {
		t.Fatal("Region result not ascending")
	}
}
