package livestore

import (
	"context"
	"slices"
	"testing"

	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// coveredBy reports whether p lies inside at least one rect.
func coveredBy(rects []geo.Rect, p geo.Point) bool {
	for _, r := range rects {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

func TestDirtyCellsCoverMutations(t *testing.T) {
	ctx := context.Background()
	s := mustNew(t, testCollection(t, 2000, 7))

	v0 := s.Current().Version()
	moved := geo.Pt(0.125, 0.875)
	inserted := geo.Pt(0.875, 0.125)
	origin := s.Current().Collection().Objects[42].Loc
	if _, _, err := s.Apply(ctx, []Mutation{
		{Op: OpUpdate, ID: 42, Loc: moved, Weight: 0.5, Text: "moved"},
		{Op: OpInsert, ID: 90001, Loc: inserted, Weight: 0.5, Text: "new"},
	}); err != nil {
		t.Fatal(err)
	}
	sn := s.Current()
	rects, ok := sn.DirtyRects(v0, nil)
	if !ok {
		t.Fatalf("DirtyRects(%d) reported truncated history after one epoch", v0)
	}
	if len(rects) == 0 {
		t.Fatal("DirtyRects returned no rects for a mutating epoch")
	}
	// Every mutated location — the old slot, the new slot, the insert —
	// must be covered by some dirty rect.
	for _, p := range []geo.Point{origin, moved, inserted} {
		if !coveredBy(rects, p) {
			t.Errorf("mutated location %v not covered by any dirty rect", p)
		}
	}
	// An interval ending at the snapshot's own version is empty.
	if got, ok := sn.DirtyRects(sn.Version(), nil); !ok || len(got) != 0 {
		t.Errorf("DirtyRects(current) = %d rects, ok=%v; want 0, true", len(got), ok)
	}
}

// TestDirtyCellsCoverInsertOverHugeSeedExtent seeds the store with two
// corners whose extent's area overflows a float64 (w·h ≈ 4e400): the
// grid has no finite cell size there and takes one cell unbounded on
// every side. An insert between the corners must then dirty a rect that
// covers it — a tile cache that found no dirty rect over the insert
// would keep serving a tile without it — and regions must still answer
// what a scan does.
func TestDirtyCellsCoverInsertOverHugeSeedExtent(t *testing.T) {
	ctx := context.Background()
	col := geodata.NewCollection()
	col.Add(1, geo.Pt(-1e200, -1e200), 0.5, "")
	col.Add(2, geo.Pt(1e200, 1e200), 0.5, "")
	s := mustNew(t, col)
	v0 := s.Current().Version()
	inserted := geo.Pt(0.5, 0.5)
	if _, _, err := s.Apply(ctx, []Mutation{{Op: OpInsert, ID: 3, Loc: inserted, Weight: 0.5}}); err != nil {
		t.Fatal(err)
	}
	sn := s.Current()
	rects, ok := sn.DirtyRects(v0, nil)
	if !ok {
		t.Fatalf("DirtyRects(%d) reported truncated history after one epoch", v0)
	}
	if !coveredBy(rects, inserted) {
		t.Errorf("inserted location %v not covered by dirty rects %v", inserted, rects)
	}
	for _, r := range []geo.Rect{
		{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)},
		{Min: geo.Pt(-1e300, -1e300), Max: geo.Pt(1e300, 1e300)},
		{Min: geo.Pt(-2e200, -2e200), Max: geo.Pt(0, 0)},
		{Min: geo.Pt(0.6, 0.6), Max: geo.Pt(2e200, 2e200)},
	} {
		want := refRegion(sn, r)
		if got := sn.Region(r); !equalInts(got, want) {
			t.Errorf("Region(%v) = %v, scan %v", r, got, want)
		}
		if got := sn.CountRegion(r); got != len(want) {
			t.Errorf("CountRegion(%v) = %d, scan %d", r, got, len(want))
		}
	}
}

func TestDirtyCellsLocalized(t *testing.T) {
	ctx := context.Background()
	// A dense uniform seed so the grid has enough cells for a corner
	// mutation to stay far from the opposite corner's cells.
	s := mustNew(t, testCollection(t, 5000, 3))
	v0 := s.Current().Version()
	if _, _, err := s.Apply(ctx, []Mutation{
		{Op: OpInsert, ID: 91000, Loc: geo.Pt(0.1, 0.1), Weight: 0.5, Text: "corner"},
	}); err != nil {
		t.Fatal(err)
	}
	rects, ok := s.Current().DirtyRects(v0, nil)
	if !ok {
		t.Fatal("history truncated after one epoch")
	}
	if coveredBy(rects, geo.Pt(0.9, 0.9)) {
		t.Error("opposite corner covered by the dirty set of a single corner insert")
	}
	if !coveredBy(rects, geo.Pt(0.1, 0.1)) {
		t.Error("insert location not covered by its own epoch's dirty set")
	}
}

func TestDirtyCellsAccumulateAcrossEpochs(t *testing.T) {
	ctx := context.Background()
	s := mustNew(t, testCollection(t, 2000, 5))
	v0 := s.Current().Version()
	locs := []geo.Point{geo.Pt(0.2, 0.2), geo.Pt(0.5, 0.8), geo.Pt(0.8, 0.3)}
	for i, p := range locs {
		if _, _, err := s.Apply(ctx, []Mutation{
			{Op: OpInsert, ID: 92000 + i, Loc: p, Weight: 0.5, Text: "x"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	sn := s.Current()
	all, ok := sn.DirtyRects(v0, nil)
	if !ok {
		t.Fatal("history truncated within maxDirtyHistory epochs")
	}
	for _, p := range locs {
		if !coveredBy(all, p) {
			t.Errorf("location %v of an earlier epoch missing from the accumulated dirty set", p)
		}
	}
	// The suffix interval only covers the later epochs.
	tail, ok := sn.DirtyRects(v0+2, nil)
	if !ok {
		t.Fatal("suffix interval reported truncated")
	}
	if !coveredBy(tail, locs[2]) {
		t.Error("last epoch's location missing from the suffix interval")
	}
	if len(tail) >= len(all) {
		t.Errorf("suffix dirty set (%d rects) not smaller than the full interval (%d)", len(tail), len(all))
	}
}

func TestDirtyCellsHistoryCap(t *testing.T) {
	ctx := context.Background()
	// Large enough that the epochs' superseded slots never reach the
	// compaction threshold, which would restart the history.
	s := mustNew(t, testCollection(t, 2000, 9))
	v0 := s.Current().Version()
	for i := 0; i < maxDirtyHistory+5; i++ {
		if _, _, err := s.Apply(ctx, []Mutation{
			{Op: OpUpdate, ID: i, Loc: geo.Pt(0.5, 0.5), Weight: 0.5, Text: "churn"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	sn := s.Current()
	if _, ok := sn.DirtyRects(v0, nil); ok {
		t.Error("DirtyRects reported full coverage past the history cap")
	}
	if _, ok := sn.DirtyRects(sn.Version()-uint64(maxDirtyHistory), nil); !ok {
		t.Error("DirtyRects reported truncation inside the retained horizon")
	}
	if len(sn.dirty) != maxDirtyHistory {
		t.Errorf("retained history length = %d, want the cap %d", len(sn.dirty), maxDirtyHistory)
	}
}

func TestDirtyCellsNoOpEpoch(t *testing.T) {
	ctx := context.Background()
	s := mustNew(t, testCollection(t, 100, 11))
	v0 := s.Current().Version()
	// All-missed batch: publishes nothing, bumps nothing.
	if v, _, err := s.Apply(ctx, []Mutation{{Op: OpDelete, ID: 777777}}); err != nil || v != v0 {
		t.Fatalf("no-op batch: version %d err %v, want %d nil", v, err, v0)
	}
	rects, ok := s.Current().DirtyRects(v0, nil)
	if !ok || len(rects) != 0 {
		t.Errorf("no-op batch produced dirty history: %d rects, ok=%v", len(rects), ok)
	}
}

func TestDirtyCellsAppendsToDst(t *testing.T) {
	ctx := context.Background()
	s := mustNew(t, testCollection(t, 500, 13))
	v0 := s.Current().Version()
	if _, _, err := s.Apply(ctx, []Mutation{
		{Op: OpInsert, ID: 93000, Loc: geo.Pt(0.4, 0.6), Weight: 0.5, Text: "x"},
	}); err != nil {
		t.Fatal(err)
	}
	sentinel := geo.Rect{Min: geo.Pt(-1, -1), Max: geo.Pt(-1, -1)}
	dst := []geo.Rect{sentinel}
	out, ok := s.Current().DirtyRects(v0, dst)
	if !ok || len(out) < 2 {
		t.Fatalf("append-style DirtyRects: %d rects, ok=%v", len(out), ok)
	}
	if out[0] != sentinel {
		t.Error("DirtyRects clobbered the caller's prefix")
	}
}

// TestDirtyRectsOneOrder feeds two stores built from one seed the same
// batch of deletes, one per grid cell and out of position order. Their
// epochs must list the same dirty rectangles in the same order: the
// order in which the batch first touches each cell.
func TestDirtyRectsOneOrder(t *testing.T) {
	ctx := context.Background()
	col := testCollection(t, 2000, 17)
	// The object nearest each target; the targets lie far more than a
	// cell apart (2000 objects make cells of ~0.06), so each delete
	// dirties a cell of its own, and its rectangle is its location.
	var batch []Mutation
	var want []geo.Rect
	for _, target := range []geo.Point{
		geo.Pt(0.9, 0.9), geo.Pt(0.1, 0.1), geo.Pt(0.5, 0.5), geo.Pt(0.1, 0.9),
		geo.Pt(0.9, 0.1), geo.Pt(0.3, 0.7), geo.Pt(0.7, 0.3),
	} {
		best := 0
		for i, o := range col.Objects {
			if o.Loc.Dist(target) < col.Objects[best].Loc.Dist(target) {
				best = i
			}
		}
		o := col.Objects[best]
		batch = append(batch, Mutation{Op: OpDelete, ID: o.ID})
		want = append(want, geo.Rect{Min: o.Loc, Max: o.Loc})
	}
	var got [2][]geo.Rect
	for i := range got {
		s := mustNew(t, testCollection(t, 2000, 17))
		if _, _, err := s.Apply(ctx, batch); err != nil {
			t.Fatal(err)
		}
		rects, ok := s.Current().DirtyRects(0, nil)
		if !ok {
			t.Fatal("history truncated after one epoch")
		}
		got[i] = rects
	}
	if !slices.Equal(got[0], got[1]) {
		t.Fatalf("two stores fed one batch list different dirty rects:\n%v\n%v", got[0], got[1])
	}
	if !slices.Equal(got[0], want) {
		t.Fatalf("dirty rects %v, want the batch's delete order %v", got[0], want)
	}
}
