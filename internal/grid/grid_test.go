package grid

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"geosel/internal/geo"
)

func mustGrid(t *testing.T, bounds geo.Rect, cell float64) *Grid {
	t.Helper()
	g := new(Grid)
	if err := g.Reset(bounds, cell); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNewValidation pins what laying out a new grid (Reset) accepts.
func TestNewValidation(t *testing.T) {
	var g Grid
	if err := g.Reset(geo.WorldUnit, 0); err == nil {
		t.Error("zero cell side should fail")
	}
	if err := g.Reset(geo.WorldUnit, -1); err == nil {
		t.Error("negative cell side should fail")
	}
	bad := geo.Rect{Min: geo.Pt(1, 1), Max: geo.Pt(0, 0)}
	if err := g.Reset(bad, 0.1); err == nil {
		t.Error("invalid bounds should fail")
	}
	// Degenerate but valid bounds are fine.
	deg := geo.Rect{Min: geo.Pt(0.5, 0.5), Max: geo.Pt(0.5, 0.5)}
	if err := g.Reset(deg, 0.1); err != nil {
		t.Fatalf("degenerate bounds: %v", err)
	}
	g.Insert(1, geo.Pt(0.5, 0.5))
	if len(g.AppendWithin(nil, geo.Pt(0.5, 0.5), 0)) == 0 {
		t.Error("point at degenerate bound not found")
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

// TestResetInterleaved reuses one grid across rounds of different
// bounds and cell sides, interleaving inserts with queries (each query
// after an insert re-sorts), and holds every query to a linear scan.
func TestResetInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := mustGrid(t, geo.WorldUnit, 0.05)
	for round := 0; round < 20; round++ {
		lo := geo.Pt(rng.Float64()-0.5, rng.Float64()-0.5)
		bounds := geo.Rect{Min: lo, Max: geo.Pt(lo.X+0.1+rng.Float64(), lo.Y+0.1+rng.Float64())}
		if err := g.Reset(bounds, 0.005+rng.Float64()*0.2); err != nil {
			t.Fatal(err)
		}
		q0 := bounds.Center()
		var pts []geo.Point
		for step := 0; step < 150; step++ {
			if rng.Intn(3) != 0 {
				p := geo.Pt(bounds.Min.X+rng.Float64()*bounds.Width(), bounds.Min.Y+rng.Float64()*bounds.Height())
				g.Insert(len(pts), p)
				pts = append(pts, p)
				continue
			}
			q := geo.Pt(bounds.Min.X+rng.Float64()*bounds.Width(), bounds.Min.Y+rng.Float64()*bounds.Height())
			d := rng.Float64() * 0.3
			got := g.AppendWithin(nil, q, d)
			sort.Ints(got)
			var want []int
			for id, p := range pts {
				if p.Dist2(q) <= d*d {
					want = append(want, id)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d step %d: got %v, want %v", round, step, got, want)
			}
		}
		if got := g.AppendWithin(nil, q0, math.Inf(1)); len(got) != len(pts) {
			t.Fatalf("round %d: an unbounded query finds %d points, inserted %d", round, len(got), len(pts))
		}
	}
}

// TestTinyCellClamped asks for sides so small that width/side overflows
// an int: the grid raises the side (the clamp) and still finds
// co-located and nearby points.
func TestTinyCellClamped(t *testing.T) {
	for _, cell := range []float64{1e-3, 1e-17, 1e-300, math.SmallestNonzeroFloat64} {
		g := mustGrid(t, geo.WorldUnit, cell)
		g.Insert(0, geo.Pt(0.25, 0.75))
		g.Insert(1, geo.Pt(0.25, 0.75))
		g.Insert(2, geo.Pt(0.75, 0.25))
		got := g.AppendWithin(nil, geo.Pt(0.25, 0.75), cell)
		sort.Ints(got)
		if !slices.Equal(got, []int{0, 1}) {
			t.Fatalf("cell %v: got %v, want [0 1]", cell, got)
		}
		if got := g.AppendWithin(nil, geo.Pt(0.5, 0.5), 1); len(got) != 3 {
			t.Fatalf("cell %v: radius 1 found %v, want all three", cell, got)
		}
	}
}
