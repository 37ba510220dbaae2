package livestore

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// FuzzRegionOrder holds every build of the one grid to one region
// order. Points are drawn on a coarse lattice so locations repeat; for
// random rects the static geodata.Store, the live store's version 0, a
// grid Reset in place after a build over a different object set (as the
// greedy's conflict grid is reused across runs), and the live snapshot
// after a random mutation batch must answer exactly what a linear scan
// over the live objects answers, element by element — the scan is the
// ascending reference — and count what the scan finds. A
// last rect reaches far past the grid, whose corners clamp into the
// edge cells. far scales the lattice from the unit square out to 1e200,
// where the extent's area overflows and the grid falls back to one
// unbounded cell. Every slot the batch killed or added must lie in a
// rect DirtyRects reports, unless the batch compacted. The same input
// also drives geodata.SortPositions over both of its methods (small and
// large inputs, narrow and wide spans) against slices.Sort.
func FuzzRegionOrder(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(8), uint8(20), false)
	f.Add(int64(2), uint16(1500), uint8(2), uint8(200), false)
	f.Add(int64(3), uint16(1), uint8(0), uint8(0), false)
	f.Add(int64(4), uint16(4000), uint8(255), uint8(255), false)
	f.Add(int64(5), uint16(800), uint8(16), uint8(8), true)
	f.Fuzz(func(t *testing.T, seed int64, size uint16, grain, churn uint8, far bool) {
		rng := rand.New(rand.NewSource(seed))
		n := int(size)%3000 + 1
		lattice := float64(int(grain)%64 + 1)
		scale := 1.0
		if far {
			scale = 1e200
		}
		at := func() geo.Point {
			return geo.Pt(float64(rng.Intn(int(lattice)+1))/lattice*scale, float64(rng.Intn(int(lattice)+1))/lattice*scale)
		}
		col := geodata.NewCollection()
		for i := 0; i < n; i++ {
			col.Add(i, at(), 0.5, "")
		}
		static, err := geodata.NewStore(col)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := New(col, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		v0 := ls.Current()
		// The other object set has its own source, so the draws below
		// stay what each input drew before.
		orng := rand.New(rand.NewSource(^seed))
		var reset geodata.Grid
		other := make([]geodata.Object, orng.Intn(2*n+1))
		for i := range other {
			other[i].Loc = geo.Pt(orng.Float64()*scale, orng.Float64()*scale)
		}
		reset.Reset(other)
		reset.Reset(col.Objects)

		// A random batch of inserts, updates and deletes, some aimed at
		// ids that do not exist.
		muts := make([]Mutation, int(churn)*n/64)
		for i := range muts {
			muts[i] = Mutation{Op: Op(rng.Intn(3) + 1), ID: rng.Intn(n + n/4 + 1), Loc: at(), Weight: 0.5}
		}
		if _, _, err := ls.Apply(context.Background(), muts); err != nil {
			t.Fatal(err)
		}
		v1 := ls.Current()
		if dirty, ok := v1.DirtyRects(v0.Version(), nil); ok {
			objs := v1.Collection().Objects
			for p := range objs {
				if (p < n && isLive(v0, p)) != isLive(v1, p) && !coveredBy(dirty, objs[p].Loc) {
					t.Fatalf("slot %d at %v changed liveness in v%d outside every dirty rect %v", p, objs[p].Loc, v1.Version(), dirty)
				}
			}
		}

		// reference is the ascending scan over the snapshot's live slots.
		reference := func(sn *Snapshot, r geo.Rect) []int {
			var out []int
			for _, p := range sn.Collection().IndicesInRegion(r) {
				if _, ok := sn.LivePos(p, sn.Version()); ok {
					out = append(out, p)
				}
			}
			return out
		}
		for i := 0; i <= 16; i++ {
			a, b := at(), at()
			r := geo.Rect{Min: geo.Pt(min(a.X, b.X), min(a.Y, b.Y)), Max: geo.Pt(max(a.X, b.X), max(a.Y, b.Y))}
			if i == 16 {
				r = geo.Rect{Min: geo.Pt(-1e300, a.Y), Max: geo.Pt(1e300, 1e300)}
			}
			want := col.IndicesInRegion(r)
			if got := static.Region(r); !slices.Equal(got, want) {
				t.Fatalf("rect %v: static store answers %v, scan %v", r, got, want)
			}
			if got := static.CountRegion(r); got != len(want) {
				t.Fatalf("rect %v: static store counts %d, scan %d", r, got, len(want))
			}
			if got := v0.Region(r); !slices.Equal(got, want) {
				t.Fatalf("rect %v: live v0 answers %v, scan %v", r, got, want)
			}
			if got := v0.CountRegion(r); got != len(want) {
				t.Fatalf("rect %v: live v0 counts %d, scan %d", r, got, len(want))
			}
			if got := reset.Region(col.Objects, r); !slices.Equal(got, want) {
				t.Fatalf("rect %v: grid Reset after %d other objects answers %v, scan %v", r, len(other), got, want)
			}
			if got := reset.CountRegion(col.Objects, r); got != len(want) {
				t.Fatalf("rect %v: grid Reset after %d other objects counts %d, scan %d", r, len(other), got, len(want))
			}
			want = reference(v1, r)
			if got := v1.Region(r); !slices.Equal(got, want) {
				t.Fatalf("rect %v after %d mutations: live v%d answers %v, scan %v", r, len(muts), v1.Version(), got, want)
			}
			if got := v1.CountRegion(r); got != len(want) {
				t.Fatalf("rect %v after %d mutations: live v%d counts %d, scan %d", r, len(muts), v1.Version(), got, len(want))
			}
		}

		// SortPositions: m distinct positions from a span of up to 512 m
		// starting anywhere, drawn by Floyd's algorithm.
		m := n
		span := m + rng.Intn(512*m)
		lo := rng.Intn(1 << 20)
		seen := make(map[int]bool, m)
		pos := make([]int, 0, m)
		for j := span - m; j < span; j++ {
			p := rng.Intn(j + 1)
			if seen[p] {
				p = j
			}
			seen[p] = true
			pos = append(pos, lo+p)
		}
		want := slices.Clone(pos)
		slices.Sort(want)
		geodata.SortPositions(pos)
		if !slices.Equal(pos, want) {
			t.Fatalf("SortPositions over %d positions spanning %d disagrees with slices.Sort", m, span)
		}
	})
}
