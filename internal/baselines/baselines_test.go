package baselines

import (
	"context"
	"geosel/internal/engine"
	"math"
	"math/rand"
	"testing"

	"geosel/internal/core"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sim"
	"geosel/internal/textsim"
)

func testObjects(n int, seed int64) []geodata.Object {
	rng := rand.New(rand.NewSource(seed))
	vocab := textsim.NewVocabulary()
	words := []string{"cafe", "bar", "park", "gym", "zoo", "pier"}
	objs := make([]geodata.Object, n)
	for i := range objs {
		text := words[rng.Intn(len(words))]
		objs[i] = geodata.Object{
			ID:     i,
			Loc:    geo.Pt(rng.Float64(), rng.Float64()),
			Weight: rng.Float64(),
			Vec:    textsim.FromText(vocab, text),
		}
	}
	return objs
}

func metric(t *testing.T) sim.Metric {
	t.Helper()
	m, err := sim.NewHybrid(0.5, math.Sqrt2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func assertNoDuplicates(t *testing.T, sel []int) {
	t.Helper()
	seen := map[int]bool{}
	for _, s := range sel {
		if seen[s] {
			t.Fatalf("duplicate selection %d in %v", s, sel)
		}
		seen[s] = true
	}
}

func TestRandomRespectsVisibility(t *testing.T) {
	objs := testObjects(300, 1)
	rng := rand.New(rand.NewSource(2))
	theta := 0.08
	sel := Random(objs, 15, theta, rng)
	if len(sel) == 0 {
		t.Fatal("empty selection")
	}
	if !core.SatisfiesVisibility(objs, sel, theta) {
		t.Fatal("random selection violates visibility")
	}
	assertNoDuplicates(t, sel)
}

func TestRandomEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if got := Random(nil, 5, 0.1, rng); got != nil {
		t.Errorf("empty objects: %v", got)
	}
	if got := Random(testObjects(5, 4), 0, 0.1, rng); got != nil {
		t.Errorf("k=0: %v", got)
	}
	// k greater than feasible: huge theta limits to 1.
	sel := Random(testObjects(50, 5), 10, 10, rng)
	if len(sel) != 1 {
		t.Errorf("huge theta: selected %d, want 1", len(sel))
	}
}

func TestMaxMinSpreadsOut(t *testing.T) {
	// Four tight corner clusters; MaxMin with spatial metric must pick
	// one object from each corner for k=4.
	var objs []geodata.Object
	corners := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(0, 1), geo.Pt(1, 1)}
	rng := rand.New(rand.NewSource(6))
	for _, c := range corners {
		for j := 0; j < 10; j++ {
			objs = append(objs, geodata.Object{
				Loc:    geo.Pt(c.X+rng.Float64()*0.01, c.Y+rng.Float64()*0.01),
				Weight: 1,
			})
		}
	}
	m := sim.EuclideanProximity{MaxDist: math.Sqrt2}
	sel := MaxMin(objs, 4, m)
	if len(sel) != 4 {
		t.Fatalf("selected %d", len(sel))
	}
	cornerHit := map[int]bool{}
	for _, s := range sel {
		cornerHit[s/10] = true
	}
	if len(cornerHit) != 4 {
		t.Errorf("MaxMin should cover all 4 corners, hit %v", cornerHit)
	}
	assertNoDuplicates(t, sel)
}

func TestMaxMinEdgeCases(t *testing.T) {
	m := metric(t)
	if got := MaxMin(nil, 3, m); got != nil {
		t.Error("empty objects should give nil")
	}
	if got := MaxMin(testObjects(5, 7), 0, m); got != nil {
		t.Error("k=0 should give nil")
	}
	if got := MaxMin(testObjects(5, 8), 1, m); len(got) != 1 {
		t.Error("k=1 should give one object")
	}
	if got := MaxMin(testObjects(3, 9), 10, m); len(got) != 3 {
		t.Errorf("k > n should cap at n, got %d", len(got))
	}
}

func TestMaxSumSpreadsOut(t *testing.T) {
	var objs []geodata.Object
	// One dense cluster plus two isolated points: MaxSum favors the
	// extremes.
	rng := rand.New(rand.NewSource(10))
	for j := 0; j < 20; j++ {
		objs = append(objs, geodata.Object{
			Loc: geo.Pt(0.5+rng.Float64()*0.01, 0.5+rng.Float64()*0.01), Weight: 1})
	}
	objs = append(objs,
		geodata.Object{Loc: geo.Pt(0, 0), Weight: 1},
		geodata.Object{Loc: geo.Pt(1, 1), Weight: 1})
	m := sim.EuclideanProximity{MaxDist: math.Sqrt2}
	sel := MaxSum(objs, 2, m)
	if len(sel) != 2 {
		t.Fatalf("selected %d", len(sel))
	}
	hasCornerA, hasCornerB := false, false
	for _, s := range sel {
		if s == 20 {
			hasCornerA = true
		}
		if s == 21 {
			hasCornerB = true
		}
	}
	if !hasCornerA || !hasCornerB {
		t.Errorf("MaxSum should pick the two extremes, got %v", sel)
	}
}

func TestMaxSumEdgeCases(t *testing.T) {
	m := metric(t)
	if got := MaxSum(nil, 3, m); got != nil {
		t.Error("empty objects should give nil")
	}
	if got := MaxSum(testObjects(4, 11), 9, m); len(got) != 4 {
		t.Errorf("k > n should cap at n, got %d", len(got))
	}
	assertNoDuplicates(t, MaxSum(testObjects(30, 12), 8, m))
}

func TestDisCCovers(t *testing.T) {
	objs := testObjects(100, 13)
	m := sim.EuclideanProximity{MaxDist: math.Sqrt2}
	r := 0.3
	sel := DisC(objs, r, m)
	if len(sel) == 0 {
		t.Fatal("empty DisC selection")
	}
	// Coverage: every object within r (dissimilarity) of some pick.
	for i := range objs {
		covered := false
		for _, s := range sel {
			if sim.Distance(m, &objs[i], &objs[s]) <= r {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("object %d not covered", i)
		}
	}
	assertNoDuplicates(t, sel)
}

func TestDisCIndependence(t *testing.T) {
	// Later picks are never within r of an earlier pick (earlier pick
	// would have covered them).
	objs := testObjects(80, 14)
	m := sim.EuclideanProximity{MaxDist: math.Sqrt2}
	r := 0.25
	sel := DisC(objs, r, m)
	for i := 0; i < len(sel); i++ {
		for j := i + 1; j < len(sel); j++ {
			if sim.Distance(m, &objs[sel[i]], &objs[sel[j]]) <= r {
				t.Fatalf("picks %d and %d within radius", sel[i], sel[j])
			}
		}
	}
}

func TestDisCWithSize(t *testing.T) {
	objs := testObjects(200, 15)
	m := sim.EuclideanProximity{MaxDist: math.Sqrt2}
	for _, k := range []int{5, 10, 20} {
		sel, r := DisCWithSize(objs, k, m)
		if len(sel) == 0 {
			t.Fatalf("k=%d: empty", k)
		}
		// The tuned size should land near k (within 50% slack; exact k
		// is not always achievable).
		if len(sel) > 2*k || len(sel) < k/2 {
			t.Errorf("k=%d: tuned size %d (r=%v) far from target", k, len(sel), r)
		}
	}
	if sel, _ := DisCWithSize(nil, 5, m); sel != nil {
		t.Error("empty objects should give nil")
	}
}

func TestKMeansOnePerCluster(t *testing.T) {
	var objs []geodata.Object
	centers := []geo.Point{geo.Pt(0.1, 0.1), geo.Pt(0.9, 0.1), geo.Pt(0.5, 0.9)}
	rng := rand.New(rand.NewSource(16))
	for _, c := range centers {
		for j := 0; j < 30; j++ {
			objs = append(objs, geodata.Object{
				Loc:    geo.Pt(c.X+rng.NormFloat64()*0.02, c.Y+rng.NormFloat64()*0.02),
				Weight: 1,
			})
		}
	}
	sel := KMeans(objs, 3, 50, rand.New(rand.NewSource(17)))
	if len(sel) != 3 {
		t.Fatalf("selected %d", len(sel))
	}
	clusterHit := map[int]bool{}
	for _, s := range sel {
		clusterHit[s/30] = true
	}
	if len(clusterHit) != 3 {
		t.Errorf("medoids should cover the 3 clusters, got %v", clusterHit)
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	if got := KMeans(nil, 3, 10, rng); got != nil {
		t.Error("empty objects should give nil")
	}
	if got := KMeans(testObjects(5, 19), 0, 10, rng); got != nil {
		t.Error("k=0 should give nil")
	}
	if got := KMeans(testObjects(3, 20), 10, 10, rng); len(got) > 3 {
		t.Errorf("k > n should cap, got %d", len(got))
	}
	// All points identical: must not loop forever or panic.
	objs := make([]geodata.Object, 10)
	for i := range objs {
		objs[i] = geodata.Object{Loc: geo.Pt(0.5, 0.5), Weight: 1}
	}
	got := KMeans(objs, 3, 10, rng)
	if len(got) == 0 {
		t.Error("identical points: want at least one medoid")
	}
}

func TestGreedyBeatsBaselinesOnScore(t *testing.T) {
	// The paper's central quality claim (Figures 7-8, Table 3): greedy
	// achieves a higher representative score than every baseline. On
	// random data ties are possible but greedy must never lose by a
	// margin.
	objs := testObjects(250, 21)
	m := metric(t)
	k, theta := 12, 0.05
	g := &core.Selector{Config: engine.Config{K: k, Theta: theta, Metric: m}, Objects: objs}
	res, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	others := map[string][]int{
		NameRandom: Random(objs, k, theta, rng),
		NameMaxMin: MaxMin(objs, k, m),
		NameMaxSum: MaxSum(objs, k, m),
		NameKMeans: KMeans(objs, k, 30, rng),
	}
	discSel, _ := DisCWithSize(objs, k, m)
	others[NameDisC] = discSel
	for name, sel := range others {
		sc := core.Score(objs, sel, m, core.AggMax)
		if sc > res.Score+1e-9 {
			t.Errorf("%s score %v beats greedy %v", name, sc, res.Score)
		}
	}
}
