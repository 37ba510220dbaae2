package geodata

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"geosel/internal/geo"
)

func buildCollection(n int, seed int64) *Collection {
	rng := rand.New(rand.NewSource(seed))
	c := NewCollection()
	words := []string{"coffee", "museum", "park", "bar", "hotel", "pizza"}
	for i := 0; i < n; i++ {
		text := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		c.Add(i, geo.Pt(rng.Float64(), rng.Float64()), rng.Float64(), text)
	}
	return c
}

func TestAddAndLen(t *testing.T) {
	c := NewCollection()
	idx := c.Add(42, geo.Pt(0.5, 0.5), 0.7, "coffee shop")
	if idx != 0 || c.Len() != 1 {
		t.Fatalf("idx = %d, len = %d", idx, c.Len())
	}
	o := c.Objects[0]
	if o.ID != 42 || o.Weight != 0.7 || o.Text != "coffee shop" {
		t.Errorf("object = %+v", o)
	}
	if len(o.Vec.Words) == 0 {
		t.Error("term vector should not be zero")
	}
	if c.Vocab.Len() != 2 {
		t.Errorf("vocab len = %d", c.Vocab.Len())
	}
}

func TestZeroValueCollection(t *testing.T) {
	var c Collection
	c.Add(1, geo.Pt(0, 0), 0.5, "x")
	if c.Len() != 1 || c.Vocab == nil {
		t.Error("zero-value collection should lazily create vocabulary")
	}
}

func TestBounds(t *testing.T) {
	c := NewCollection()
	if _, ok := c.Bounds(); ok {
		t.Error("empty collection should have no bounds")
	}
	c.Add(0, geo.Pt(0.2, 0.8), 1, "")
	c.Add(1, geo.Pt(0.6, 0.1), 1, "")
	b, ok := c.Bounds()
	if !ok || b.Min != geo.Pt(0.2, 0.1) || b.Max != geo.Pt(0.6, 0.8) {
		t.Errorf("bounds = %v, %v", b, ok)
	}
}

func TestValidate(t *testing.T) {
	c := NewCollection()
	c.Add(0, geo.Pt(0.5, 0.5), 0.5, "")
	if err := c.Validate(); err != nil {
		t.Errorf("valid collection rejected: %v", err)
	}
	c.Objects[0].Weight = 1.5
	if err := c.Validate(); err == nil {
		t.Error("weight > 1 should fail")
	}
	c.Objects[0].Weight = math.NaN()
	if err := c.Validate(); err == nil {
		t.Error("NaN weight should fail")
	}
	c.Objects[0].Weight = 0.5
	c.Objects[0].Loc.X = math.Inf(1)
	if err := c.Validate(); err == nil {
		t.Error("infinite location should fail")
	}
}

func TestSubset(t *testing.T) {
	c := buildCollection(10, 1)
	sub := c.Subset([]int{3, 7, 1})
	if len(sub) != 3 {
		t.Fatalf("len = %d", len(sub))
	}
	if sub[0].ID != c.Objects[3].ID || sub[2].ID != c.Objects[1].ID {
		t.Error("subset order wrong")
	}
}

func TestIndicesInRegion(t *testing.T) {
	c := NewCollection()
	c.Add(0, geo.Pt(0.1, 0.1), 1, "")
	c.Add(1, geo.Pt(0.5, 0.5), 1, "")
	c.Add(2, geo.Pt(0.9, 0.9), 1, "")
	got := c.IndicesInRegion(geo.Rect{Min: geo.Pt(0.4, 0.4), Max: geo.Pt(1, 1)})
	sort.Ints(got)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("got %v", got)
	}
}

func TestStoreRegionAgainstLinear(t *testing.T) {
	c := buildCollection(2000, 2)
	s, err := NewStore(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2000 {
		t.Fatalf("store len = %d", s.Len())
	}
	wantB, _ := c.Bounds()
	if got, ok := s.Bounds(); !ok || got != wantB {
		t.Fatalf("store bounds = %v, %v; collection bounds %v", got, ok, wantB)
	}
	rng := rand.New(rand.NewSource(3))
	buf := make([]int, 0, len(c.Objects))
	for q := 0; q < 30; q++ {
		r := geo.RectAround(geo.Pt(rng.Float64(), rng.Float64()), rng.Float64()*0.2)
		got := s.Region(r) // ascending, like the scan
		want := c.IndicesInRegion(r)
		if len(got) != len(want) {
			t.Fatalf("got %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mismatch at %d", i)
			}
		}
		if n := s.CountRegion(r); n != len(want) {
			t.Fatalf("CountRegion = %d, want %d", n, len(want))
		}
		// AppendRegion finds the same positions in cell order, after
		// dst's prefix, and allocates nothing with room in dst.
		buf = append(buf[:0], -1)
		if allocs := testing.AllocsPerRun(5, func() {
			buf = s.grid.AppendRegion(buf[:1], c.Objects, r)
		}); allocs > 0 {
			t.Fatalf("AppendRegion allocates %.2f objects per call", allocs)
		}
		if buf[0] != -1 {
			t.Fatalf("AppendRegion overwrote dst's prefix: %d", buf[0])
		}
		appended := slices.Clone(buf[1:])
		slices.Sort(appended)
		if !slices.Equal(appended, want) {
			t.Fatalf("AppendRegion found %v, want %v", appended, want)
		}
	}
}

func TestStoreRejectsInvalid(t *testing.T) {
	if _, err := NewStore(nil); err == nil {
		t.Error("nil collection should fail")
	}
	c := NewCollection()
	c.Add(0, geo.Pt(0, 0), 2, "")
	if _, err := NewStore(c); err == nil {
		t.Error("invalid collection should fail")
	}
}

func TestStoreEmpty(t *testing.T) {
	s, err := NewStore(NewCollection())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Region(geo.WorldUnit); len(got) != 0 {
		t.Error("empty store should return nothing")
	}
	if _, ok := s.Bounds(); ok {
		t.Error("Bounds on empty store should fail")
	}
}

func TestApplyTFIDF(t *testing.T) {
	c := NewCollection()
	for i := 0; i < 30; i++ {
		c.Add(i, geo.Pt(0.5, 0.5), 1, "common")
	}
	c.Add(30, geo.Pt(0.1, 0.1), 1, "common apple")
	c.Add(31, geo.Pt(0.2, 0.2), 1, "common banana")
	c.Add(32, geo.Pt(0.3, 0.3), 1, "rare apple")
	before := c.Objects[30].Vec.Cosine(c.Objects[31].Vec)
	c.ApplyTFIDF()
	after := c.Objects[30].Vec.Cosine(c.Objects[31].Vec)
	if after >= before {
		t.Errorf("TF-IDF should reduce common-term similarity: %v -> %v", before, after)
	}
	// Docs sharing the rare term stay relatively similar.
	rare := c.Objects[30].Vec.Cosine(c.Objects[32].Vec)
	if rare <= after {
		t.Errorf("rare-term pair %v should beat common-term pair %v", rare, after)
	}
	// No-ops on empty collections.
	NewCollection().ApplyTFIDF()
	(&Collection{}).ApplyTFIDF()
}

// TestNewGridMatchesAppendBuild holds the counting-sort build to the
// per-object append it replaced: every cell holds the same positions in
// the same ascending order, and no cell can append into its neighbour.
func TestNewGridMatchesAppendBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 500, 5000} {
		objs := make([]Object, n)
		for i := range objs {
			objs[i].Loc = geo.Pt(rng.Float64(), rng.Float64()*rng.Float64())
		}
		g := NewGrid(objs)
		want := make([][]int32, len(g.cells))
		for i := range objs {
			k := g.cellKey(objs[i].Loc)
			want[k] = append(want[k], int32(i))
		}
		for k := range want {
			if !slices.Equal(g.cells[k], want[k]) {
				t.Fatalf("n=%d cell %d: %v, want %v", n, k, g.cells[k], want[k])
			}
			if cap(g.cells[k]) != len(g.cells[k]) {
				t.Fatalf("n=%d cell %d: cap %d over len %d", n, k, cap(g.cells[k]), len(g.cells[k]))
			}
		}
	}
}
