package grid

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"geosel/internal/geo"
)

func mustGrid(t *testing.T, bounds geo.Rect, cell float64) *Grid {
	t.Helper()
	g, err := New(bounds, cell)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(geo.WorldUnit, 0); err == nil {
		t.Error("zero cell side should fail")
	}
	if _, err := New(geo.WorldUnit, -1); err == nil {
		t.Error("negative cell side should fail")
	}
	bad := geo.Rect{Min: geo.Pt(1, 1), Max: geo.Pt(0, 0)}
	if _, err := New(bad, 0.1); err == nil {
		t.Error("invalid bounds should fail")
	}
	// Degenerate but valid bounds are fine.
	deg := geo.Rect{Min: geo.Pt(0.5, 0.5), Max: geo.Pt(0.5, 0.5)}
	g, err := New(deg, 0.1)
	if err != nil {
		t.Fatalf("degenerate bounds: %v", err)
	}
	g.Insert(1, geo.Pt(0.5, 0.5))
	if len(g.AppendWithin(nil, geo.Pt(0.5, 0.5), 0)) == 0 {
		t.Error("point at degenerate bound not found")
	}
}

func TestInsertRemove(t *testing.T) {
	g := mustGrid(t, geo.WorldUnit, 0.1)
	p := geo.Pt(0.42, 0.42)
	g.Insert(7, p)
	if g.Len() != 1 {
		t.Fatalf("len = %d", g.Len())
	}
	if !g.Remove(7, p) {
		t.Fatal("Remove should find the point")
	}
	if g.Remove(7, p) {
		t.Fatal("second Remove should fail")
	}
	if g.Len() != 0 {
		t.Fatalf("len = %d after remove", g.Len())
	}
}

func TestRemoveWrongCell(t *testing.T) {
	g := mustGrid(t, geo.WorldUnit, 0.1)
	g.Insert(1, geo.Pt(0.05, 0.05))
	// Wrong coordinates: different cell, must not find it.
	if g.Remove(1, geo.Pt(0.95, 0.95)) {
		t.Error("Remove with wrong location should fail")
	}
	if g.Len() != 1 {
		t.Error("point should still be present")
	}
}

func TestWithinExactBoundary(t *testing.T) {
	g := mustGrid(t, geo.WorldUnit, 0.1)
	g.Insert(1, geo.Pt(0.5, 0.5))
	g.Insert(2, geo.Pt(0.6, 0.5)) // exactly 0.1 away
	ids := g.AppendWithin(nil, geo.Pt(0.5, 0.5), 0.1)
	sort.Ints(ids)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("boundary point should be included, got %v", ids)
	}
	ids = g.AppendWithin(nil, geo.Pt(0.5, 0.5), 0.0999)
	if len(ids) != 1 || ids[0] != 1 {
		t.Errorf("got %v", ids)
	}
}

func TestWithinNegativeRadius(t *testing.T) {
	g := mustGrid(t, geo.WorldUnit, 0.1)
	g.Insert(1, geo.Pt(0.5, 0.5))
	if got := g.AppendWithin(nil, geo.Pt(0.5, 0.5), -1); len(got) != 0 {
		t.Errorf("negative radius should match nothing, got %v", got)
	}
}

func TestPointsOutsideBounds(t *testing.T) {
	// Points outside the declared bounds clamp to edge cells and remain
	// queryable.
	g := mustGrid(t, geo.WorldUnit, 0.1)
	out := geo.Pt(1.5, 1.5)
	g.Insert(9, out)
	if len(g.AppendWithin(nil, out, 0.001)) == 0 {
		t.Error("out-of-bounds point not found at its own location")
	}
	if !g.Remove(9, out) {
		t.Error("out-of-bounds point not removable")
	}
}

// TestAgainstLinearScan is the core correctness property: AppendWithin must
// agree exactly with a brute-force filter, across random configurations
// of points, radii and query locations.
func TestAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		cell := 0.01 + rng.Float64()*0.2
		g := mustGrid(t, geo.WorldUnit, cell)
		type rec struct {
			id int
			p  geo.Point
		}
		var pts []rec
		n := 50 + rng.Intn(300)
		for i := 0; i < n; i++ {
			p := geo.Pt(rng.Float64(), rng.Float64())
			pts = append(pts, rec{i, p})
			g.Insert(i, p)
		}
		for q := 0; q < 20; q++ {
			qp := geo.Pt(rng.Float64(), rng.Float64())
			d := rng.Float64() * 0.3
			got := g.AppendWithin(nil, qp, d)
			sort.Ints(got)
			var want []int
			for _, r := range pts {
				if r.p.Dist(qp) <= d {
					want = append(want, r.id)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: got %v, want %v", trial, got, want)
				}
			}
		}
	}
}

func TestRemoveInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := mustGrid(t, geo.WorldUnit, 0.05)
	live := map[int]geo.Point{}
	nextID := 0
	for step := 0; step < 3000; step++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			p := geo.Pt(rng.Float64(), rng.Float64())
			g.Insert(nextID, p)
			live[nextID] = p
			nextID++
		} else {
			for id, p := range live {
				if !g.Remove(id, p) {
					t.Fatalf("failed to remove live id %d", id)
				}
				delete(live, id)
				break
			}
		}
		if g.Len() != len(live) {
			t.Fatalf("size mismatch: %d vs %d", g.Len(), len(live))
		}
	}
	// Verify every remaining point is found by a zero-radius self query.
	for id, p := range live {
		if !slices.Contains(g.AppendWithin(nil, p, 1e-12), id) {
			t.Fatalf("live id %d lost", id)
		}
	}
}
