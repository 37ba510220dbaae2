package isos

import (
	"context"
	"geosel/internal/engine"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"geosel/internal/core"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sim"
)

func testStore(t *testing.T, n int, seed int64) *geodata.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	col := geodata.NewCollection()
	words := []string{"cafe", "bar", "park", "gym", "zoo", "pier", "dock", "inn"}
	for i := 0; i < n; i++ {
		text := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		col.Add(i, geo.Pt(rng.Float64(), rng.Float64()), rng.Float64(), text)
	}
	s, err := geodata.NewStore(col)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testConfig(t *testing.T) Config {
	t.Helper()
	m, err := sim.NewHybrid(0.5, math.Sqrt2)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Config: engine.Config{K: 10, ThetaFrac: 0.03, Metric: m}}
}

func locOf(s *geodata.Store) func(int) geo.Point {
	return func(p int) geo.Point { return s.Collection().Objects[p].Loc }
}

func TestNewSessionValidation(t *testing.T) {
	store := testStore(t, 50, 1)
	good := testConfig(t)
	if _, err := NewSession(nil, good); err == nil {
		t.Error("nil store should fail")
	}
	bad := good
	bad.K = 0
	if _, err := NewSession(store, bad); err == nil {
		t.Error("K=0 should fail")
	}
	bad = good
	bad.ThetaFrac = -1
	if _, err := NewSession(store, bad); err == nil {
		t.Error("negative theta should fail")
	}
	bad = good
	bad.ThetaFrac = math.NaN()
	if _, err := NewSession(store, bad); err == nil {
		t.Error("NaN theta should fail")
	}
	bad = good
	bad.Metric = nil
	if _, err := NewSession(store, bad); err == nil {
		t.Error("nil metric should fail")
	}
	bad = good
	bad.MaxZoomOutScale = 0.5
	if _, err := NewSession(store, bad); err == nil {
		t.Error("MaxZoomOutScale < 1 should fail")
	}
}

func TestSessionRequiresStart(t *testing.T) {
	store := testStore(t, 50, 2)
	s, err := NewSession(store, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ZoomIn(context.Background(), geo.RectAround(geo.Pt(0.5, 0.5), 0.1)); err == nil {
		t.Error("zoom before start should fail")
	}
	if _, err := s.Pan(context.Background(), geo.Pt(0.1, 0)); err == nil {
		t.Error("pan before start should fail")
	}
	if err := s.Prefetch(context.Background()); err == nil {
		t.Error("prefetch before start should fail")
	}
	if _, err := s.Start(context.Background(), geo.Rect{Min: geo.Pt(0.5, 0.5), Max: geo.Pt(0.4, 0.4)}); err == nil {
		t.Error("invalid start region should fail")
	}
}

func TestStartSelectsAndSatisfiesVisibility(t *testing.T) {
	store := testStore(t, 2000, 3)
	cfg := testConfig(t)
	s, err := NewSession(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.25)
	sel, err := s.Start(context.Background(), region)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Positions) != cfg.K {
		t.Fatalf("selected %d, want %d", len(sel.Positions), cfg.K)
	}
	objs := store.Collection().Objects
	theta := cfg.ThetaFrac * region.Width()
	for i := 0; i < len(sel.Positions); i++ {
		if !region.Contains(objs[sel.Positions[i]].Loc) {
			t.Fatalf("selected object %d outside region", sel.Positions[i])
		}
		for j := i + 1; j < len(sel.Positions); j++ {
			if objs[sel.Positions[i]].Loc.Dist(objs[sel.Positions[j]].Loc) < theta {
				t.Fatal("visibility violated")
			}
		}
	}
	if got := s.Visible(); len(got) != len(sel.Positions) {
		t.Errorf("Visible() = %d entries", len(got))
	}
	if sel.RegionObjects != store.CountRegion(region) {
		t.Errorf("RegionObjects = %d", sel.RegionObjects)
	}
}

func TestZoomInConsistency(t *testing.T) {
	store := testStore(t, 3000, 4)
	s, err := NewSession(store, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.3)
	if _, err := s.Start(context.Background(), region); err != nil {
		t.Fatal(err)
	}
	oldVisible := s.Visible()
	inner := geo.RectAround(geo.Pt(0.5, 0.5), 0.15)
	sel, err := s.ZoomIn(context.Background(), inner)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTransition(geo.OpZoomIn, region, inner, oldVisible, sel.Positions, locOf(store)); err != nil {
		t.Fatal(err)
	}
	// Forced objects appear first in the selection.
	if sel.ForcedCount > 0 {
		forced := sel.Positions[:sel.ForcedCount]
		vis := map[int]bool{}
		for _, v := range oldVisible {
			vis[v] = true
		}
		for _, f := range forced {
			if !vis[f] {
				t.Fatalf("forced object %d was not previously visible", f)
			}
		}
	}
}

func TestZoomOutConsistency(t *testing.T) {
	store := testStore(t, 3000, 5)
	s, err := NewSession(store, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.1)
	if _, err := s.Start(context.Background(), region); err != nil {
		t.Fatal(err)
	}
	oldVisible := s.Visible()
	outer := geo.RectAround(geo.Pt(0.5, 0.5), 0.25)
	sel, err := s.ZoomOut(context.Background(), outer)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTransition(geo.OpZoomOut, region, outer, oldVisible, sel.Positions, locOf(store)); err != nil {
		t.Fatal(err)
	}
	if sel.ForcedCount != 0 {
		t.Errorf("zoom-out forces %d objects, want 0", sel.ForcedCount)
	}
}

func TestPanConsistency(t *testing.T) {
	store := testStore(t, 3000, 6)
	s, err := NewSession(store, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	region := geo.RectAround(geo.Pt(0.4, 0.4), 0.15)
	if _, err := s.Start(context.Background(), region); err != nil {
		t.Fatal(err)
	}
	oldVisible := s.Visible()
	delta := geo.Pt(0.1, 0.05)
	sel, err := s.Pan(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	newRegion := region.Translate(delta)
	if err := CheckTransition(geo.OpPan, region, newRegion, oldVisible, sel.Positions, locOf(store)); err != nil {
		t.Fatal(err)
	}
}

func TestRandomWalkStaysConsistent(t *testing.T) {
	// A long random navigation sequence: every transition must pass the
	// consistency checker and every selection the visibility constraint.
	store := testStore(t, 5000, 7)
	cfg := testConfig(t)
	cfg.K = 8
	s, err := NewSession(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.2)
	if _, err := s.Start(context.Background(), region); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for step := 0; step < 25; step++ {
		oldRegion := s.Viewport().Region
		oldVisible := s.Visible()
		var (
			op     geo.Op
			newSel *Selection
			err    error
		)
		switch rng.Intn(3) {
		case 0:
			op = geo.OpZoomIn
			inner := oldRegion.ScaleAroundCenter(0.5 + rng.Float64()*0.3)
			newSel, err = s.ZoomIn(context.Background(), inner)
		case 1:
			op = geo.OpZoomOut
			outer := oldRegion.ScaleAroundCenter(1.3 + rng.Float64())
			newSel, err = s.ZoomOut(context.Background(), outer)
		default:
			op = geo.OpPan
			d := geo.Pt((rng.Float64()-0.5)*oldRegion.Width(),
				(rng.Float64()-0.5)*oldRegion.Height())
			newSel, err = s.Pan(context.Background(), d)
		}
		if err != nil {
			t.Fatalf("step %d (%v): %v", step, op, err)
		}
		if err := CheckTransition(op, oldRegion, s.Viewport().Region, oldVisible, newSel.Positions, locOf(store)); err != nil {
			t.Fatalf("step %d (%v): %v", step, op, err)
		}
		objs := store.Collection().Objects
		theta := cfg.ThetaFrac * s.Viewport().Region.Width()
		for i := 0; i < len(newSel.Positions); i++ {
			for j := i + 1; j < len(newSel.Positions); j++ {
				a, b := newSel.Positions[i], newSel.Positions[j]
				if objs[a].Loc.Dist(objs[b].Loc) < theta {
					t.Fatalf("step %d (%v): visibility violated", step, op)
				}
			}
		}
	}
}

func TestPrefetchedSelectionsMatchExact(t *testing.T) {
	// The prefetched path must produce exactly the same selections as
	// the cold path — only faster. Run the same navigation twice.
	for _, op := range []geo.Op{geo.OpZoomIn, geo.OpZoomOut, geo.OpPan} {
		store := testStore(t, 4000, 9)
		cfg := testConfig(t)
		run := func(usePrefetch bool) []int {
			s, err := NewSession(store, cfg)
			if err != nil {
				t.Fatal(err)
			}
			region := geo.RectAround(geo.Pt(0.5, 0.5), 0.15)
			if _, err := s.Start(context.Background(), region); err != nil {
				t.Fatal(err)
			}
			if usePrefetch {
				if err := s.Prefetch(context.Background(), op); err != nil {
					t.Fatal(err)
				}
			}
			var sel *Selection
			switch op {
			case geo.OpZoomIn:
				sel, err = s.ZoomIn(context.Background(), region.ScaleAroundCenter(0.5))
			case geo.OpZoomOut:
				sel, err = s.ZoomOut(context.Background(), region.ScaleAroundCenter(2))
			default:
				sel, err = s.Pan(context.Background(), geo.Pt(0.07, -0.03))
			}
			if err != nil {
				t.Fatal(err)
			}
			if sel.Prefetched != usePrefetch {
				t.Fatalf("%v: Prefetched = %v, want %v", op, sel.Prefetched, usePrefetch)
			}
			out := append([]int(nil), sel.Positions...)
			sort.Ints(out)
			return out
		}
		cold := run(false)
		warm := run(true)
		if len(cold) != len(warm) {
			t.Fatalf("%v: cold %d vs warm %d selections", op, len(cold), len(warm))
		}
		for i := range cold {
			if cold[i] != warm[i] {
				t.Fatalf("%v: selections differ at %d: %d vs %d", op, i, cold[i], warm[i])
			}
		}
	}
}

func TestPrefetchReducesEvals(t *testing.T) {
	// How much prefetching prunes is data-dependent (it needs gain
	// skew); what must always hold is that seeding with upper bounds
	// never *increases* the evaluation count. A skew-friendly dataset
	// (sparse text similarity, clustered space) must show a strict
	// reduction — that is the tiled run below.
	rng := rand.New(rand.NewSource(77))
	col := geodata.NewCollection()
	for i := 0; i < 4000; i++ {
		// Three dense spatial clusters with fine-grained topics plus
		// background noise.
		var x, y float64
		switch i % 4 {
		case 0:
			x, y = 0.45+rng.NormFloat64()*0.03, 0.45+rng.NormFloat64()*0.03
		case 1:
			x, y = 0.6+rng.NormFloat64()*0.02, 0.55+rng.NormFloat64()*0.02
		case 2:
			x, y = 0.5+rng.NormFloat64()*0.05, 0.6+rng.NormFloat64()*0.05
		default:
			x, y = rng.Float64(), rng.Float64()
		}
		text := ""
		for w := 0; w < 5; w++ {
			if w > 0 {
				text += " "
			}
			if rng.Float64() < 0.2 {
				text += "topic" + string(rune('a'+i%4)) + string(rune('a'+rng.Intn(26)))
			} else {
				text += "rare" + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
			}
		}
		col.Add(i, geo.Pt(clamp01(x), clamp01(y)), rng.Float64(), text)
	}
	store, err := geodata.NewStore(col)
	if err != nil {
		t.Fatal(err)
	}
	run := func(m sim.Metric, usePrefetch bool) *Selection {
		cfg := Config{Config: engine.Config{K: 10, ThetaFrac: 0.003, Metric: m}}
		s, err := NewSession(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		region := geo.RectAround(geo.Pt(0.5, 0.5), 0.2)
		if _, err := s.Start(context.Background(), region); err != nil {
			t.Fatal(err)
		}
		if usePrefetch {
			if err := s.Prefetch(context.Background(), geo.OpZoomIn); err != nil {
				t.Fatal(err)
			}
		}
		sel, err := s.ZoomIn(context.Background(), region.ScaleAroundCenter(0.5))
		if err != nil {
			t.Fatal(err)
		}
		if sel.Prefetched != usePrefetch {
			t.Fatalf("Prefetched = %v after usePrefetch = %v", sel.Prefetched, usePrefetch)
		}
		return sel
	}
	// The paper's ordering holds on a metric the engine cannot see
	// into: the opaque wrapper compiles to the generic Rows kind, whose
	// cold run pays the exact heap initialization of Algorithm 1.
	opaque := sim.Func(sim.Cosine{}.Sim)
	cold := run(opaque, false)
	if plain := run(opaque, true).Evals; plain > cold.Evals {
		t.Errorf("plain prefetch evals %d exceed cold %d", plain, cold.Evals)
	}
	// Cosine seeds its own heap from the region's row sums, which no
	// envelope bound can beat: a cold run needs no more evaluations
	// than a prefetched one, and skips most of the initialization the
	// opaque cold run paid for.
	self := run(sim.Cosine{}, false)
	if pre := run(sim.Cosine{}, true).Evals; self.Evals > pre {
		t.Errorf("self-seeded cold evals %d exceed prefetched %d", self.Evals, pre)
	}
	if self.Evals > cold.Evals-self.CandidateCount/2 {
		t.Errorf("self-seeded cold evals %d not %d/2 below the opaque cold run's %d",
			self.Evals, self.CandidateCount, cold.Evals)
	}
	if self.Score != cold.Score || !reflect.DeepEqual(self.Positions, cold.Positions) {
		t.Errorf("self-seeded run selected %v (score %v), opaque run %v (score %v)",
			self.Positions, self.Score, cold.Positions, cold.Score)
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func TestPrefetchInvalidatedAfterOp(t *testing.T) {
	store := testStore(t, 2000, 11)
	s, err := NewSession(store, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.2)
	if _, err := s.Start(context.Background(), region); err != nil {
		t.Fatal(err)
	}
	if err := s.Prefetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	sel1, err := s.ZoomIn(context.Background(), region.ScaleAroundCenter(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if !sel1.Prefetched {
		t.Fatal("first op should use prefetch")
	}
	// Without a fresh Prefetch the next op must run cold.
	sel2, err := s.ZoomOut(context.Background(), s.Viewport().Region.ScaleAroundCenter(2))
	if err != nil {
		t.Fatal(err)
	}
	if sel2.Prefetched {
		t.Error("stale prefetch reused after an operation")
	}
}

func TestDeriveZoomInExample(t *testing.T) {
	// Example 3.3 geometry: nine objects, o1/o5/o9 visible, zoom into a
	// region containing o3, o4, o5.
	locs := []geo.Point{
		{X: 0.1, Y: 0.9}, {X: 0.3, Y: 0.8}, {X: 0.45, Y: 0.55},
		{X: 0.55, Y: 0.45}, {X: 0.5, Y: 0.5}, {X: 0.7, Y: 0.7},
		{X: 0.9, Y: 0.2}, {X: 0.2, Y: 0.2}, {X: 0.85, Y: 0.85},
	}
	locate := func(i int) geo.Point { return locs[i] }
	visible := []int{0, 4, 8} // o1, o5, o9
	inner := geo.Rect{Min: geo.Pt(0.4, 0.4), Max: geo.Pt(0.6, 0.6)}
	inRegion := []int{2, 3, 4} // o3, o4, o5
	d := DeriveZoomIn(visible, inRegion, inner, locate)
	if len(d.D) != 1 || d.D[0] != 4 {
		t.Errorf("D = %v, want [4] (o5 stays visible)", d.D)
	}
	sort.Ints(d.G)
	if len(d.G) != 2 || d.G[0] != 2 || d.G[1] != 3 {
		t.Errorf("G = %v, want [2 3]", d.G)
	}
}

func TestDeriveZoomOutExample(t *testing.T) {
	// Example 3.4: four objects in the old region, o4/o5/o6 visible; o3
	// hidden. After zoom-out the hidden o3 is not selectable; objects
	// outside the old region are candidates.
	locs := []geo.Point{
		{X: 0.45, Y: 0.45}, // o3 hidden in old region
		{X: 0.5, Y: 0.55},  // o4 visible
		{X: 0.55, Y: 0.5},  // o5 visible
		{X: 0.52, Y: 0.48}, // o6 visible
		{X: 0.1, Y: 0.1},   // outside old region
		{X: 0.9, Y: 0.9},   // outside old region
	}
	locate := func(i int) geo.Point { return locs[i] }
	oldRegion := geo.Rect{Min: geo.Pt(0.4, 0.4), Max: geo.Pt(0.6, 0.6)}
	visible := []int{1, 2, 3}
	newObjs := []int{0, 1, 2, 3, 4, 5}
	d := DeriveZoomOut(visible, newObjs, oldRegion, locate)
	if len(d.D) != 0 {
		t.Errorf("D = %v, want empty", d.D)
	}
	sort.Ints(d.G)
	want := []int{1, 2, 3, 4, 5}
	if len(d.G) != len(want) {
		t.Fatalf("G = %v, want %v", d.G, want)
	}
	for i := range want {
		if d.G[i] != want[i] {
			t.Fatalf("G = %v, want %v", d.G, want)
		}
	}
}

func TestDerivePanExample(t *testing.T) {
	// Example 3.5: o5 visible in the overlap stays forced; o7 hidden in
	// the overlap is excluded; fresh-area objects are candidates.
	locs := []geo.Point{
		{X: 0.55, Y: 0.5}, // o5: overlap, visible
		{X: 0.58, Y: 0.4}, // o7: overlap, hidden
		{X: 0.3, Y: 0.5},  // o9: old region only (not in new)
		{X: 0.8, Y: 0.5},  // o10: fresh area
		{X: 0.75, Y: 0.3}, // o11: fresh area
	}
	locate := func(i int) geo.Point { return locs[i] }
	oldRegion := geo.Rect{Min: geo.Pt(0.2, 0.2), Max: geo.Pt(0.6, 0.6)}
	// new region overlaps on x in [0.5, 0.6]
	visible := []int{0, 2}
	newObjs := []int{0, 1, 3, 4}
	d := DerivePan(visible, newObjs, oldRegion, locate)
	if len(d.D) != 1 || d.D[0] != 0 {
		t.Errorf("D = %v, want [0]", d.D)
	}
	sort.Ints(d.G)
	if len(d.G) != 2 || d.G[0] != 3 || d.G[1] != 4 {
		t.Errorf("G = %v, want [3 4]", d.G)
	}
}

func TestCheckTransitionDetectsViolations(t *testing.T) {
	locs := []geo.Point{{X: 0.5, Y: 0.5}, {X: 0.55, Y: 0.55}}
	locate := func(i int) geo.Point { return locs[i] }
	old := geo.Rect{Min: geo.Pt(0.4, 0.4), Max: geo.Pt(0.7, 0.7)}
	inner := geo.Rect{Min: geo.Pt(0.45, 0.45), Max: geo.Pt(0.6, 0.6)}
	// Zoom-in drops a visible object in the new region.
	if err := CheckTransition(geo.OpZoomIn, old, inner, []int{0}, nil, locate); err == nil {
		t.Error("zoom-in violation not detected")
	}
	// Zoom-out shows a previously hidden object.
	outer := old.ScaleAroundCenter(2)
	if err := CheckTransition(geo.OpZoomOut, old, outer, nil, []int{0}, locate); err == nil {
		t.Error("zoom-out violation not detected")
	}
	// Pan drops a visible overlap object.
	moved := old.Translate(geo.Pt(0.05, 0))
	if err := CheckTransition(geo.OpPan, old, moved, []int{0}, nil, locate); err == nil {
		t.Error("pan violation not detected")
	}
	// Pan shows a hidden old-region object.
	if err := CheckTransition(geo.OpPan, old, moved, []int{0}, []int{0, 1}, locate); err == nil {
		t.Error("pan hidden-object violation not detected")
	}
	// Disjoint pan regions.
	far := old.Translate(geo.Pt(10, 10))
	if err := CheckTransition(geo.OpPan, old, far, nil, nil, locate); err == nil {
		t.Error("disjoint pan not detected")
	}
	// Unknown op.
	if err := CheckTransition(geo.Op(42), old, moved, nil, nil, locate); err == nil {
		t.Error("unknown op not detected")
	}
	// A clean zoom-in passes.
	if err := CheckTransition(geo.OpZoomIn, old, inner, []int{0}, []int{0}, locate); err != nil {
		t.Errorf("clean transition rejected: %v", err)
	}
}

func TestSessionScoreMatchesCore(t *testing.T) {
	store := testStore(t, 1500, 12)
	cfg := testConfig(t)
	s, err := NewSession(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.25)
	sel, err := s.Start(context.Background(), region)
	if err != nil {
		t.Fatal(err)
	}
	regionPos := store.Region(region)
	objs := store.Collection().Subset(regionPos)
	// Map collection positions back to subset positions for scoring.
	subsetOf := map[int]int{}
	for i, p := range regionPos {
		subsetOf[p] = i
	}
	var subSel []int
	for _, p := range sel.Positions {
		subSel = append(subSel, subsetOf[p])
	}
	want := core.Score(objs, subSel, cfg.Metric, core.AggMax)
	if math.Abs(sel.Score-want) > 1e-9 {
		t.Errorf("session score %v, core score %v", sel.Score, want)
	}
}

func TestPrefetchFallbackBeyondEnvelope(t *testing.T) {
	// A zoom-out beyond MaxZoomOutScale escapes the prefetched envelope;
	// the session must fall back to a cold selection rather than trust
	// bounds that miss objects.
	store := testStore(t, 3000, 13)
	cfg := testConfig(t)
	cfg.MaxZoomOutScale = 2
	s, err := NewSession(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.05)
	if _, err := s.Start(context.Background(), region); err != nil {
		t.Fatal(err)
	}
	if err := s.Prefetch(context.Background(), geo.OpZoomOut); err != nil {
		t.Fatal(err)
	}
	sel, err := s.ZoomOut(context.Background(), region.ScaleAroundCenter(4))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Prefetched {
		t.Error("zoom-out beyond the prefetch envelope must not use stale bounds")
	}
	// Within the envelope the prefetch is used.
	s2, err := NewSession(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Start(context.Background(), region); err != nil {
		t.Fatal(err)
	}
	if err := s2.Prefetch(context.Background(), geo.OpZoomOut); err != nil {
		t.Fatal(err)
	}
	sel2, err := s2.ZoomOut(context.Background(), region.ScaleAroundCenter(1.8))
	if err != nil {
		t.Fatal(err)
	}
	if !sel2.Prefetched {
		t.Error("zoom-out within the envelope should use prefetched bounds")
	}
}

// TestPrefetchCoverageSliver pins the candidate coverage rule of
// prefetchBounds. The envelope test allows the new region to stick out
// of the prefetched envelope by 1e-12, so a pan can reach past the
// envelope by one ulp of rounding. An object in that sliver is a
// candidate with no envelope bound — on Cosine the envelope aggregate
// lacks its own self term — so the step must run unseeded. The same pan
// without that object is seeded: the sliver alone decides.
func TestPrefetchCoverageSliver(t *testing.T) {
	// A square region and a pan along x whose new region touches the old
	// one and ends one ulp past the pan envelope (3× the side): each
	// translated edge rounds on its own.
	const a, b, dx = 0.3642791617747125, 0.3933120212396968, 0.029032859464984323
	region := geo.Rect{Min: geo.Pt(a, a), Max: geo.Pt(b, b)}
	env := geo.NewViewport(region).PanEnvelope()
	moved := region.Translate(geo.Pt(dx, 0))
	if !moved.Intersects(region) || env.ContainsRect(moved) || !env.ContainsRect(moved.Expand(-1e-12)) {
		t.Fatalf("pan to %v does not stick out of the envelope %v by less than the slack", moved, env)
	}
	sliver := geo.Pt(moved.Max.X, (a+b)/2)
	if env.Contains(sliver) || !moved.Contains(sliver) {
		t.Fatalf("%v is not in the sliver between %v and %v", sliver, env, moved)
	}
	cfg := Config{Config: engine.Config{K: 4, ThetaFrac: 0.01, Metric: sim.Cosine{}}}
	words := []string{"cafe", "bar", "park", "gym"}
	pan := func(withSliver bool) *Selection {
		t.Helper()
		col := geodata.NewCollection()
		// Two rows of objects across old and new region, and the
		// envelope's corners so the view's bounds cover the envelope.
		for i := range 16 {
			x := a + (moved.Max.X-a)*float64(i)/16
			col.Add(2*i, geo.Pt(x, a+(b-a)/3), 0.5, words[i%4])
			col.Add(2*i+1, geo.Pt(x, a+2*(b-a)/3), 0.7, words[(i+1)%4])
		}
		col.Add(100, env.Min, 0.1, "pier")
		col.Add(101, geo.Pt(moved.Max.X, moved.Max.Y+0.1), 0.1, "pier")
		if withSliver {
			col.Add(102, sliver, 1, "zoo")
		}
		store, err := geodata.NewStore(col)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := s.Start(ctx, region); err != nil {
			t.Fatal(err)
		}
		if err := s.Prefetch(ctx, geo.OpPan); err != nil {
			t.Fatal(err)
		}
		sel, err := s.Pan(ctx, geo.Pt(dx, 0))
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	if !pan(false).Prefetched {
		t.Fatal("without the sliver object the pan is covered and must be seeded")
	}
	if pan(true).Prefetched {
		t.Error("a candidate outside the prefetched envelope was seeded from the envelope's bounds")
	}
}

func TestPrefetchUnknownOpIgnored(t *testing.T) {
	store := testStore(t, 500, 14)
	s, err := NewSession(store, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(context.Background(), geo.RectAround(geo.Pt(0.5, 0.5), 0.2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Prefetch(context.Background(), geo.Op(42)); err != nil {
		t.Fatalf("unknown op should be ignored, got %v", err)
	}
}
