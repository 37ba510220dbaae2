package geosel

import (
	"context"
	"geosel/internal/engine"
	"math"
	"math/rand"
	"slices"
	"testing"

	"geosel/internal/dataset"
)

func facadeStore(t *testing.T) *Store {
	t.Helper()
	store, err := dataset.GenerateStore(dataset.POISpec(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestSelectBasic(t *testing.T) {
	store := facadeStore(t)
	region := RectAround(Pt(0.5, 0.5), 0.2)
	res, err := Select(context.Background(), store, region, Options{Config: engine.Config{K: 20, ThetaFrac: 0.003, Metric: Cosine()}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) == 0 || len(res.Positions) > 20 {
		t.Fatalf("selected %d", len(res.Positions))
	}
	if res.RegionObjects != store.CountRegion(region) {
		t.Errorf("RegionObjects = %d", res.RegionObjects)
	}
	if res.SampleSize != res.RegionObjects {
		t.Errorf("non-sampled run: SampleSize %d != RegionObjects %d", res.SampleSize, res.RegionObjects)
	}
	objs := store.Collection().Objects
	theta := 0.003 * region.Width()
	for i := 0; i < len(res.Positions); i++ {
		if !region.Contains(objs[res.Positions[i]].Loc) {
			t.Fatal("selection outside region")
		}
		for j := i + 1; j < len(res.Positions); j++ {
			if objs[res.Positions[i]].Loc.Dist(objs[res.Positions[j]].Loc) < theta {
				t.Fatal("visibility violated")
			}
		}
	}
	if res.Score <= 0 || res.Score > 1 {
		t.Errorf("score = %v", res.Score)
	}
}

func TestSelectAbsoluteTheta(t *testing.T) {
	store := facadeStore(t)
	region := RectAround(Pt(0.5, 0.5), 0.2)
	res, err := Select(context.Background(), store, region, Options{Config: engine.Config{K: 10, Theta: 0.05, Metric: Cosine()}})
	if err != nil {
		t.Fatal(err)
	}
	sel := res.Positions
	objs := store.Collection().Objects
	for i := 0; i < len(sel); i++ {
		for j := i + 1; j < len(sel); j++ {
			if objs[sel[i]].Loc.Dist(objs[sel[j]].Loc) < 0.05 {
				t.Fatal("absolute theta violated")
			}
		}
	}
}

func TestSelectSampled(t *testing.T) {
	store := facadeStore(t)
	region := RectAround(Pt(0.5, 0.5), 0.35)
	res, err := Select(context.Background(), store, region, Options{Config: engine.Config{K: 15, ThetaFrac: 0.003, Metric: Cosine()}, Sample: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleSize >= res.RegionObjects && res.RegionObjects > 1000 {
		t.Errorf("sampling did not reduce: %d of %d", res.SampleSize, res.RegionObjects)
	}
	if len(res.Positions) == 0 {
		t.Fatal("no selections")
	}
}

// TestSelectSampledCoveringIsExact: a sample that covers the region
// (Serfling's m reaches |O| for a tiny ε) is every object in position
// order, so Sample: true answers as the exact path, bit for bit.
func TestSelectSampledCoveringIsExact(t *testing.T) {
	store := facadeStore(t)
	region := RectAround(Pt(0.5, 0.5), 0.2)
	cfg := engine.Config{K: 20, ThetaFrac: 0.003, Metric: Cosine()}
	exact, err := Select(context.Background(), store, region, Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Select(context.Background(), store, region, Options{Config: cfg, Sample: true, Eps: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.SampleSize != sampled.RegionObjects || sampled.RegionObjects < 500 {
		t.Fatalf("sampled %d of %d region objects", sampled.SampleSize, sampled.RegionObjects)
	}
	if !slices.Equal(sampled.Positions, exact.Positions) {
		t.Errorf("sampled selection %v, exact %v", sampled.Positions, exact.Positions)
	}
	if math.Float64bits(sampled.Score) != math.Float64bits(exact.Score) {
		t.Errorf("sampled score %v, exact %v", sampled.Score, exact.Score)
	}
}

// TestSelectSampledAlikeAcrossStores: the sample is a function of the
// data, so two stores built apart over the same data answer alike.
func TestSelectSampledAlikeAcrossStores(t *testing.T) {
	region := RectAround(Pt(0.5, 0.5), 0.35)
	opts := Options{Config: engine.Config{K: 15, ThetaFrac: 0.003, Metric: Cosine()}, Sample: true}
	var got [2]*Result
	for i := range got {
		res, err := Select(context.Background(), facadeStore(t), region, opts)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = res
	}
	if got[0].SampleSize >= got[0].RegionObjects {
		t.Fatalf("sampled %d of %d: the region does not sample", got[0].SampleSize, got[0].RegionObjects)
	}
	if !slices.Equal(got[0].Positions, got[1].Positions) || math.Float64bits(got[0].Score) != math.Float64bits(got[1].Score) {
		t.Errorf("two stores over one dataset sampled apart: %v %v, %v %v",
			got[0].Positions, got[0].Score, got[1].Positions, got[1].Score)
	}
}

func TestSelectValidation(t *testing.T) {
	store := facadeStore(t)
	region := RectAround(Pt(0.5, 0.5), 0.1)
	if _, err := Select(context.Background(), nil, region, Options{Config: engine.Config{K: 5, Metric: Cosine()}}); err == nil {
		t.Error("nil store should fail")
	}
	if _, err := Select(context.Background(), store, region, Options{Config: engine.Config{K: 5}}); err == nil {
		t.Error("missing metric should fail")
	}
	if _, err := Select(context.Background(), store, region, Options{Config: engine.Config{K: -2, Metric: Cosine()}}); err == nil {
		t.Error("negative K should fail")
	}
	for _, sample := range []bool{false, true} {
		opts := Options{Config: engine.Config{K: 5, ThetaFrac: math.NaN(), Metric: Cosine()}, Sample: sample}
		if _, err := Select(context.Background(), store, region, opts); err == nil {
			t.Errorf("NaN ThetaFrac (sample %v) should fail", sample)
		}
	}
}

func TestFacadeCollectionRoundTrip(t *testing.T) {
	col := NewCollection()
	col.Add(1, Pt(0.2, 0.3), 0.5, "coffee shop")
	col.Add(2, Pt(0.8, 0.7), 0.9, "art museum")
	store, err := NewStore(col)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Select(context.Background(), store, RectAround(Pt(0.5, 0.5), 0.5), Options{Config: engine.Config{K: 2, Metric: Cosine()}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) != 2 {
		t.Fatalf("selected %v", res.Positions)
	}
}

func TestFacadeMetrics(t *testing.T) {
	col := NewCollection()
	a := col.Objects
	_ = a
	col.Add(1, Pt(0, 0), 1, "x y")
	col.Add(2, Pt(0.3, 0.4), 1, "x y")
	o := col.Objects
	// Identical text on two objects: 1 up to the float32 rounding of unit
	// term weights.
	if got := Cosine().Sim(&o[0], &o[1]); got > 1 || got < 1-0x1p-20 {
		t.Errorf("cosine = %v", got)
	}
	if got := EuclideanProximity(1).Sim(&o[0], &o[1]); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("euclidean = %v", got)
	}
	h, err := Hybrid(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Sim(&o[0], &o[1]); math.Abs(got-0.75) > 0x1p-21 {
		t.Errorf("hybrid = %v", got)
	}
	f := MetricFunc(func(a, b *Object) float64 { return 0.25 })
	if got := f.Sim(&o[0], &o[1]); got != 0.25 {
		t.Errorf("func metric = %v", got)
	}
}

func TestFacadeScoreAndRepresentatives(t *testing.T) {
	col := NewCollection()
	col.Add(1, Pt(0.1, 0.1), 1, "a")
	col.Add(2, Pt(0.9, 0.9), 1, "b")
	col.Add(3, Pt(0.15, 0.1), 1, "a a")
	objs := col.Objects
	sel := []int{0, 1}
	if s := Score(objs, sel, Cosine()); math.Abs(s-1) > 1e-9 {
		t.Errorf("score = %v", s)
	}
	rep := Representatives(objs, sel, Cosine())
	if rep[2] != 0 {
		t.Errorf("rep = %v", rep)
	}
	if !SatisfiesVisibility(objs, sel, 0.5) {
		t.Error("far pair should satisfy visibility")
	}
	if SatisfiesVisibility(objs, []int{0, 2}, 0.5) {
		t.Error("close pair should violate")
	}
}

func TestFacadeSessionFlow(t *testing.T) {
	store := facadeStore(t)
	sess, err := NewSession(store, SessionConfig{Config: engine.Config{K: 10, ThetaFrac: 0.003, Metric: Cosine()}})
	if err != nil {
		t.Fatal(err)
	}
	region := RectAround(Pt(0.5, 0.5), 0.2)
	if _, err := sess.Start(context.Background(), region); err != nil {
		t.Fatal(err)
	}
	if err := sess.Prefetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	sel, err := sess.ZoomIn(context.Background(), RectAround(Pt(0.5, 0.5), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Prefetched {
		t.Error("zoom-in should have used the prefetched bounds")
	}
	if _, err := sess.Pan(context.Background(), Pt(0.05, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ZoomOut(context.Background(), sess.Viewport().Region.ScaleAroundCenter(2)); err != nil {
		t.Fatal(err)
	}
}

func TestMercatorFacade(t *testing.T) {
	p := Mercator(LonLat{Lon: 0, Lat: 0})
	if math.Abs(p.X-0.5) > 1e-9 || math.Abs(p.Y-0.5) > 1e-9 {
		t.Errorf("Mercator(0,0) = %v", p)
	}
}

func TestSelectWithFilter(t *testing.T) {
	store := facadeStore(t)
	region := RectAround(Pt(0.5, 0.5), 0.3)
	all, err := Select(context.Background(), store, region, Options{Config: engine.Config{K: 10, Metric: Cosine()}})
	if err != nil {
		t.Fatal(err)
	}
	// Filter to objects whose weight exceeds 0.5; every selected object
	// must satisfy it and RegionObjects must shrink.
	filtered, err := Select(context.Background(), store, region, Options{Config: engine.Config{K: 10, Metric: Cosine()}, Filter: func(o *Object) bool { return o.Weight > 0.5 }})
	if err != nil {
		t.Fatal(err)
	}
	if filtered.RegionObjects >= all.RegionObjects {
		t.Errorf("filter did not shrink region: %d vs %d", filtered.RegionObjects, all.RegionObjects)
	}
	for _, p := range filtered.Positions {
		if store.Collection().Objects[p].Weight <= 0.5 {
			t.Fatalf("selected object %d violates filter", p)
		}
	}
}

func TestSessionWithFilter(t *testing.T) {
	store := facadeStore(t)
	sess, err := NewSession(store, SessionConfig{Config: engine.Config{K: 8, ThetaFrac: 0.003, Metric: Cosine()}, Filter: func(o *Object) bool { return o.Weight > 0.3 }})
	if err != nil {
		t.Fatal(err)
	}
	region := RectAround(Pt(0.5, 0.5), 0.25)
	sel, err := sess.Start(context.Background(), region)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sel.Positions {
		if store.Collection().Objects[p].Weight <= 0.3 {
			t.Fatalf("filtered session selected object %d below weight bound", p)
		}
	}
	sel, err = sess.ZoomIn(context.Background(), RectAround(Pt(0.5, 0.5), 0.12))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sel.Positions {
		if store.Collection().Objects[p].Weight <= 0.3 {
			t.Fatalf("zoomed filtered session selected object %d below weight bound", p)
		}
	}
}

// newRand is a tiny helper for integration tests.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
