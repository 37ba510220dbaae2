package tilecache

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/livestore"
	"geosel/internal/sim"
)

// heapsortStitch is the repair pass as it was before stitch merged
// pre-ordered runs: gather every covering tile's members inside the
// viewport (locations read from the object array), heapsort them into
// keep order, and find duplicates by scanning the kept positions. It
// is the reference the merge is held to.
func heapsortStitch(budget float64, tiles []*entry, objs []geodata.Object, region geo.Rect, k int, theta float64, forced []int, gset map[int32]struct{}) (keptPos, keptRef []int32, info stitchInfo, ok bool) {
	var ms []member
	base := int32(0)
	for _, e := range tiles {
		for i, p := range e.pos {
			if loc := objs[p].Loc; region.Contains(loc) {
				ms = append(ms, member{pos: p, ref: base + int32(i), gain: e.gains[i], loc: loc})
			}
		}
		base += int32(len(e.pos))
	}
	siftDown := func(i, n int) {
		for {
			child := 2*i + 1
			if child >= n {
				return
			}
			if r := child + 1; r < n && memberBefore(ms[child], ms[r]) {
				child = r
			}
			if !memberBefore(ms[i], ms[child]) {
				return
			}
			ms[i], ms[child] = ms[child], ms[i]
			i = child
		}
	}
	for i := len(ms)/2 - 1; i >= 0; i-- {
		siftDown(i, len(ms))
	}
	for i := len(ms) - 1; i > 0; i-- {
		ms[0], ms[i] = ms[i], ms[0]
		siftDown(0, i)
	}

	var keptLoc []geo.Point
	for _, f := range forced {
		keptPos = append(keptPos, int32(f))
		keptRef = append(keptRef, -1)
		keptLoc = append(keptLoc, objs[f].Loc)
	}
	th2 := theta * theta
	for _, m := range ms {
		if slices.Contains(keptPos, m.pos) {
			continue
		}
		if gset != nil {
			if _, in := gset[m.pos]; !in {
				info.excludedGain += m.gain
				continue
			}
		}
		info.totalGain += m.gain
		if len(keptPos) >= k {
			continue
		}
		separated := true
		for _, l := range keptLoc {
			if l.Dist2(m.loc) < th2 {
				separated = false
				break
			}
		}
		if !separated {
			info.droppedCount++
			info.droppedGain += m.gain
			continue
		}
		keptPos = append(keptPos, m.pos)
		keptRef = append(keptRef, m.ref)
		keptLoc = append(keptLoc, m.loc)
		info.keptGain += m.gain
	}
	ok = info.droppedGain <= budget*info.totalGain &&
		info.excludedGain <= budget*(info.totalGain+info.excludedGain) &&
		!(len(keptPos) < k && info.droppedCount > 0)
	return keptPos, keptRef, info, ok
}

// stitchCase is one random repair problem: objects on a coarse lattice
// (so members sit on shared tile edges and share locations), up to
// maxStitchTiles covering tiles whose members stand in keep order with
// gains drawn from a few values (so keys tie), a viewport, θ, k, a
// forced set that doubles some members and, half the time, a G-set.
type stitchCase struct {
	objs   []geodata.Object
	tiles  []*entry
	region geo.Rect
	k      int
	theta  float64
	forced []int
	gset   map[int32]struct{}
	budget float64
}

func newStitchCase(seed int64) stitchCase {
	rng := rand.New(rand.NewSource(seed))
	const lattice = 16
	at := func() geo.Point {
		return geo.Pt(float64(rng.Intn(lattice+1))/lattice, float64(rng.Intn(lattice+1))/lattice)
	}
	var c stitchCase
	n := 1 + rng.Intn(300)
	c.objs = make([]geodata.Object, n)
	for i := range c.objs {
		c.objs[i] = geodata.Object{ID: i, Loc: at(), Weight: 1}
	}
	// A block of tx×ty tiles of side 1/4 starting at (x0, y0): tile
	// edges fall on lattice lines.
	tx, ty := 1+rng.Intn(4), 1+rng.Intn(4)
	x0, y0 := rng.Intn(5-tx), rng.Intn(5-ty)
	gains := []float64{0.25, 0.5, 1, 1.5, 2, 3}
	for y := y0; y < y0+ty; y++ {
		for x := x0; x < x0+tx; x++ {
			rect := Tile{Z: 2, X: int32(x), Y: int32(y)}.Rect()
			e := &entry{}
			var ms []member
			for p := range c.objs {
				if rect.Contains(c.objs[p].Loc) && rng.Intn(3) > 0 {
					g := gains[rng.Intn(len(gains))]
					if rng.Intn(4) == 0 {
						g = rng.Float64() * 3
					}
					ms = append(ms, member{pos: int32(p), gain: g})
				}
			}
			slices.SortFunc(ms, func(a, b member) int {
				if memberBefore(a, b) {
					return -1
				}
				return 1
			})
			for _, m := range ms {
				e.pos = append(e.pos, m.pos)
				e.gains = append(e.gains, m.gain)
				e.locs = append(e.locs, c.objs[m.pos].Loc)
			}
			c.tiles = append(c.tiles, e)
		}
	}
	a, b := at(), at()
	c.region = geo.Rect{Min: geo.Pt(min(a.X, b.X), min(a.Y, b.Y)), Max: geo.Pt(max(a.X, b.X)+0.05, max(a.Y, b.Y)+0.05)}
	c.k = 1 + rng.Intn(40)
	c.theta = []float64{0, 0.01, 1.0 / lattice, 0.1, 0.3}[rng.Intn(5)]
	// Forced: distinct, θ-separated objects inside the viewport (a
	// session's D set), some of them tile members.
	var inside []int
	for p := range c.objs {
		if c.region.Contains(c.objs[p].Loc) {
			inside = append(inside, p)
		}
	}
	rng.Shuffle(len(inside), func(i, j int) { inside[i], inside[j] = inside[j], inside[i] })
	want := rng.Intn(min(c.k, 4) + 1)
	for _, p := range inside {
		if len(c.forced) == want {
			break
		}
		separated := true
		for _, f := range c.forced {
			if c.objs[p].Loc.Dist(c.objs[f].Loc) < c.theta {
				separated = false
			}
		}
		if separated {
			c.forced = append(c.forced, p)
		}
	}
	if rng.Intn(2) == 0 {
		c.gset = make(map[int32]struct{})
		for p := range c.objs {
			if rng.Intn(4) > 0 {
				c.gset[int32(p)] = struct{}{}
			}
		}
	}
	c.budget = []float64{0, 0.3, 1}[rng.Intn(3)]
	return c
}

// checkStitchMatchesHeapsort runs stitch and the heapsort reference on
// one case and demands the same kept positions, the same stitchInfo
// bit for bit and the same verdict. keptRef must match too, except that
// where one (gain, position) key occurs in several tiles the reference
// heapsort — not stable — may take any of them; there the two refs
// must name members with that key.
func checkStitchMatchesHeapsort(t *testing.T, sc *scratch, seed int64) {
	t.Helper()
	tc := newStitchCase(seed)
	c := &Cache{budget: tc.budget}
	sc.tiles = append(sc.tiles[:0], tc.tiles...)
	var gset *posSet
	if tc.gset != nil {
		sc.gset.reset(len(tc.gset))
		for p := range tc.gset {
			sc.gset.add(p)
		}
		gset = &sc.gset
	}
	var info stitchInfo
	ok := c.stitch(sc, tc.objs, tc.region, tc.k, tc.theta, tc.forced, gset, &info)
	wantPos, wantRef, wantInfo, wantOK := heapsortStitch(tc.budget, tc.tiles, tc.objs, tc.region, tc.k, tc.theta, tc.forced, tc.gset)

	if ok != wantOK {
		t.Fatalf("seed %d: ok = %v, heapsort %v", seed, ok, wantOK)
	}
	if !slices.Equal(sc.keptPos, wantPos) || len(sc.keptRef) != len(wantRef) {
		t.Fatalf("seed %d: keptPos %v, heapsort %v", seed, sc.keptPos, wantPos)
	}
	bits := func(in stitchInfo) [7]uint64 {
		return [7]uint64{math.Float64bits(in.keptGain), math.Float64bits(in.totalGain),
			math.Float64bits(in.droppedGain), math.Float64bits(in.excludedGain),
			uint64(in.droppedCount), uint64(in.tiles), uint64(in.misses)}
	}
	if bits(info) != bits(wantInfo) {
		t.Fatalf("seed %d: stitchInfo %+v, heapsort %+v", seed, info, wantInfo)
	}
	var flat []member
	for _, e := range tc.tiles {
		for i := range e.pos {
			flat = append(flat, member{pos: e.pos[i], gain: e.gains[i]})
		}
	}
	for i, ref := range sc.keptRef {
		want := wantRef[i]
		if ref == want {
			continue
		}
		if ref < 0 || want < 0 || flat[ref] != flat[want] {
			t.Fatalf("seed %d: keptRef[%d] = %d, heapsort %d", seed, i, ref, want)
		}
	}
}

// TestStitchMergeMatchesHeapsort holds the merge of pre-ordered tile
// runs, with its kept-position set and entry locations, to the
// heapsort stitch it replaced, over random repair problems.
func TestStitchMergeMatchesHeapsort(t *testing.T) {
	sc := &scratch{}
	kept := 0
	for seed := int64(0); seed < 3000; seed++ {
		checkStitchMatchesHeapsort(t, sc, seed)
		for _, ref := range sc.keptRef {
			if ref >= 0 {
				kept++
			}
		}
	}
	if kept == 0 {
		t.Fatal("no case kept a tile member; the merge went untested")
	}
}

// FuzzStitchMerge is TestStitchMergeMatchesHeapsort over fuzzed seeds.
func FuzzStitchMerge(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	sc := &scratch{}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkStitchMatchesHeapsort(t, sc, seed)
	})
}

// TestTileEntriesInKeepOrder: the tiles computeTile materializes over
// the POI fixture list their members in the stitch's keep order — the
// precondition of the merge — and carry each member's location. Cosine
// seeds its heap from row sums; the opaque metric takes the exact-init
// path.
func TestTileEntriesInKeepOrder(t *testing.T) {
	col, err := dataset.Generate(dataset.POISpec(20000, 1))
	if err != nil {
		t.Fatal(err)
	}
	ls, err := livestore.New(col, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	view := ls.Current()
	objs := view.Collection().Objects
	for _, m := range []sim.Metric{sim.Cosine{}, sim.Func(sim.Cosine{}.Sim)} {
		c := newTestCache(t, engine.Config{Metric: m})
		for _, key := range []Key{
			{T: Tile{Z: 3, X: 3, Y: 3}, Band: 12, K: 100},
			{T: Tile{Z: 4, X: 8, Y: 7}, Band: 20, K: 60},
			{T: Tile{Z: 5, X: 14, Y: 17}, Band: bandZero, K: 30},
			{T: Tile{Z: 5, X: 16, Y: 16}, Band: 8, K: 200},
			{T: Tile{Z: 6, X: 31, Y: 33}, Band: 16, K: 50},
		} {
			e, err := c.computeTile(context.Background(), view, view.Version(), key)
			if err != nil {
				t.Fatal(err)
			}
			if len(e.pos) < 2 {
				t.Fatalf("%v: %d members", key, len(e.pos))
			}
			if len(e.locs) != len(e.pos) || len(e.gains) != len(e.pos) {
				t.Fatalf("%v: %d positions, %d gains, %d locations", key, len(e.pos), len(e.gains), len(e.locs))
			}
			for i, p := range e.pos {
				if e.locs[i] != objs[p].Loc {
					t.Fatalf("%v: member %d at %v, object at %v", key, i, e.locs[i], objs[p].Loc)
				}
				if i == 0 {
					continue
				}
				a := member{pos: e.pos[i-1], gain: e.gains[i-1]}
				b := member{pos: p, gain: e.gains[i]}
				if !memberBefore(a, b) {
					t.Fatalf("%v: member %d %+v does not follow member %d %+v in keep order", key, i, b, i-1, a)
				}
			}
		}
	}
}
