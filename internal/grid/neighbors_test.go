package grid

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"geosel/internal/geo"
)

// TestNeighborsCellBoundaries places points exactly on cell edges and
// corners and checks the radius query against a linear scan: the ring
// arithmetic must not lose points whose cell differs from the naive
// floor of their coordinate.
func TestNeighborsCellBoundaries(t *testing.T) {
	g := mustGrid(t, geo.WorldUnit, 0.1)
	pts := []geo.Point{
		geo.Pt(0.1, 0.1),   // cell corner
		geo.Pt(0.2, 0.15),  // vertical cell edge
		geo.Pt(0.15, 0.2),  // horizontal cell edge
		geo.Pt(0.1, 0.3),   // corner two cells up
		geo.Pt(0.25, 0.25), // interior
		geo.Pt(0, 0),       // grid origin
		geo.Pt(1, 1),       // far corner
	}
	for id, p := range pts {
		g.Insert(id, p)
	}
	for _, q := range pts {
		for _, r := range []float64{0, 0.05, 0.1, 0.1000000001, 0.2} {
			got := g.AppendWithin(nil, q, r)
			sort.Ints(got)
			var want []int
			for id, p := range pts {
				if p.Dist2(q) <= r*r {
					want = append(want, id)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("q=%v r=%v: got %v want %v", q, r, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("q=%v r=%v: got %v want %v", q, r, got, want)
				}
			}
		}
	}
}

// TestNeighborsWholeGridRadius checks radii at and far beyond the grid
// extent, including +Inf, where the unclamped ring arithmetic would hit
// implementation-defined float-to-int conversion.
func TestNeighborsWholeGridRadius(t *testing.T) {
	g := mustGrid(t, geo.WorldUnit, 0.01)
	rng := rand.New(rand.NewSource(7))
	const n = 200
	for id := 0; id < n; id++ {
		g.Insert(id, geo.Pt(rng.Float64(), rng.Float64()))
	}
	for _, r := range []float64{math.Sqrt2, 10, 1e18, math.Inf(1)} {
		got := g.AppendWithin(nil, geo.Pt(0.5, 0.5), r)
		if len(got) != n {
			t.Fatalf("r=%v: %d of %d points found", r, len(got), n)
		}
	}
	// A query point far outside the bounds must still see everything.
	if got := g.AppendWithin(nil, geo.Pt(-50, 80), math.Inf(1)); len(got) != n {
		t.Fatalf("outside query: %d of %d points found", len(got), n)
	}
}

// TestNeighborsDegenerateRadius pins the degenerate radii: r = 0
// matches only exact-location points, r < 0 matches nothing.
func TestNeighborsDegenerateRadius(t *testing.T) {
	g := mustGrid(t, geo.WorldUnit, 0.1)
	g.Insert(1, geo.Pt(0.5, 0.5))
	g.Insert(2, geo.Pt(0.5, 0.5))
	g.Insert(3, geo.Pt(0.50001, 0.5))
	got := g.AppendWithin(nil, geo.Pt(0.5, 0.5), 0)
	sort.Ints(got)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("r=0: %v", got)
	}
	if got := g.AppendWithin(nil, geo.Pt(0.5, 0.5), -1); len(got) != 0 {
		t.Fatalf("r<0: %v", got)
	}
}

// TestAppendWithinReusesBuffer checks the caller-owned-buffer contract:
// appends extend dst without clobbering its prefix.
func TestAppendWithinReusesBuffer(t *testing.T) {
	g := mustGrid(t, geo.WorldUnit, 0.1)
	g.Insert(5, geo.Pt(0.3, 0.3))
	buf := []int{-1}
	buf = g.AppendWithin(buf, geo.Pt(0.3, 0.3), 0.05)
	if len(buf) != 2 || buf[0] != -1 || buf[1] != 5 {
		t.Fatalf("buffer after append: %v", buf)
	}
}

func TestAppendWithinMatchesWithinAndNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := mustGrid(t, geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)}, 0.05)
	pts := make([]geo.Point, 500)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64(), rng.Float64())
		g.Insert(i, pts[i])
	}
	buf := make([]int, 0, 64)
	for trial := 0; trial < 50; trial++ {
		q := geo.Pt(rng.Float64(), rng.Float64())
		d := rng.Float64() * 0.1
		buf = g.AppendWithin(buf[:0], q, d)
		var want []int
		for id, p := range pts {
			if p.Dist2(q) <= d*d {
				want = append(want, id)
			}
		}
		sort.Ints(buf)
		if len(buf) != len(want) {
			t.Fatalf("trial %d: AppendWithin %d ids, linear scan %d", trial, len(buf), len(want))
		}
		for k := range want {
			if buf[k] != want[k] {
				t.Fatalf("trial %d: id sets differ: %v vs %v", trial, buf, want)
			}
		}
	}
	// With a warm buffer the cell walk is allocation-free.
	q := geo.Pt(0.5, 0.5)
	avg := testing.AllocsPerRun(100, func() {
		buf = g.AppendWithin(buf[:0], q, 0.08)
	})
	if avg != 0 {
		t.Fatalf("AppendWithin allocates %v per query, want 0", avg)
	}
}
