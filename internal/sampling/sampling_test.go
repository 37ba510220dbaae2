package sampling

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"geosel/internal/core"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sim"
	"geosel/internal/textsim"
)

func testObjects(n int, seed int64) []geodata.Object {
	rng := rand.New(rand.NewSource(seed))
	vocab := textsim.NewVocabulary()
	words := []string{"cafe", "bar", "park", "gym", "zoo", "pier", "dock", "inn"}
	objs := make([]geodata.Object, n)
	for i := range objs {
		text := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		objs[i] = geodata.Object{
			ID:     i,
			Loc:    geo.Pt(rng.Float64(), rng.Float64()),
			Weight: rng.Float64(),
			Vec:    textsim.FromText(vocab, text),
		}
	}
	return objs
}

func TestHoeffdingSizeKnownValue(t *testing.T) {
	// ln(2/0.1)/(2·0.05²) = ln(20)/0.005 ≈ 599.15 → 600.
	m, err := HoeffdingSize(1_000_000, 0.05, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if m != 600 {
		t.Errorf("m = %d, want 600", m)
	}
	// Capped by population.
	m, err = HoeffdingSize(100, 0.05, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if m != 100 {
		t.Errorf("capped m = %d, want 100", m)
	}
}

func TestSerflingSizeProperties(t *testing.T) {
	// Serfling <= Hoeffding for all finite n; equal in the limit.
	for _, n := range []int{100, 1000, 100000, 10000000} {
		for _, eps := range []float64{0.03, 0.05, 0.07} {
			for _, delta := range []float64{0.08, 0.1, 0.12} {
				s, err := SerflingSize(n, eps, delta)
				if err != nil {
					t.Fatal(err)
				}
				h, err := HoeffdingSize(n, eps, delta)
				if err != nil {
					t.Fatal(err)
				}
				if s > h {
					t.Errorf("n=%d eps=%v delta=%v: serfling %d > hoeffding %d", n, eps, delta, s, h)
				}
				if s <= 0 {
					t.Errorf("non-positive sample size %d", s)
				}
			}
		}
	}
	// Convergence: for huge n the two sizes agree.
	s, _ := SerflingSize(1<<40, 0.05, 0.1)
	h, _ := HoeffdingSize(1<<40, 0.05, 0.1)
	if s != h {
		t.Errorf("limit: serfling %d != hoeffding %d", s, h)
	}
}

func TestSampleSizeMonotonicity(t *testing.T) {
	// Larger eps or delta → smaller samples.
	prev := math.MaxInt
	for _, eps := range []float64{0.03, 0.04, 0.05, 0.06, 0.07} {
		m, err := SerflingSize(1_000_000, eps, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if m > prev {
			t.Errorf("eps=%v: size %d grew", eps, m)
		}
		prev = m
	}
	prev = math.MaxInt
	for _, delta := range []float64{0.08, 0.09, 0.1, 0.11, 0.12} {
		m, err := SerflingSize(1_000_000, 0.05, delta)
		if err != nil {
			t.Fatal(err)
		}
		if m > prev {
			t.Errorf("delta=%v: size %d grew", delta, m)
		}
		prev = m
	}
}

func TestSizeParamValidation(t *testing.T) {
	for _, bad := range [][2]float64{{0, 0.1}, {1, 0.1}, {-0.1, 0.1}, {0.05, 0}, {0.05, 1}, {0.05, -2}} {
		if _, err := HoeffdingSize(100, bad[0], bad[1]); err == nil {
			t.Errorf("HoeffdingSize(%v) should fail", bad)
		}
		if _, err := SerflingSize(100, bad[0], bad[1]); err == nil {
			t.Errorf("SerflingSize(%v) should fail", bad)
		}
	}
	if _, err := SerflingSize(0, 0.05, 0.1); err == nil {
		t.Error("SerflingSize with n=0 should fail")
	}
}

func TestBoundString(t *testing.T) {
	if BoundSerfling.String() != "serfling" || BoundHoeffding.String() != "hoeffding" {
		t.Error("Bound.String mismatch")
	}
	if Bound(7).String() != "Bound(7)" {
		t.Error("unknown Bound.String mismatch")
	}
}

func TestRunBasic(t *testing.T) {
	objs := testObjects(5000, 1)
	m, err := sim.NewHybrid(0.5, math.Sqrt2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Config: engine.Config{K: 10, Theta: 0.03, Metric: m}, Eps: 0.05, Delta: 0.1}
	res, err := Run(context.Background(), objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 10 {
		t.Fatalf("selected %d", len(res.Selected))
	}
	want, _ := SerflingSize(len(objs), 0.05, 0.1)
	if res.SampleSize != want {
		t.Errorf("sample size %d, want %d", res.SampleSize, want)
	}
	// Selected positions index the original slice and satisfy
	// visibility there.
	for _, s := range res.Selected {
		if s < 0 || s >= len(objs) {
			t.Fatalf("selection %d out of range", s)
		}
	}
	if !core.SatisfiesVisibility(objs, res.Selected, 0.03) {
		t.Fatal("visibility violated on full data")
	}
}

func TestRunScoreCloseToFullGreedy(t *testing.T) {
	// Theorem 6.3's practical content: the sampled solution's score on
	// the full data is close to the full greedy's. We allow a generous
	// tolerance (the theorem gives ε plus greedy variance).
	objs := testObjects(4000, 3)
	m, err := sim.NewHybrid(0.5, math.Sqrt2)
	if err != nil {
		t.Fatal(err)
	}
	k, theta := 10, 0.03
	full := &core.Selector{Config: engine.Config{K: k, Theta: theta, Metric: m}, Objects: objs}
	fres, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Config: engine.Config{K: k, Theta: theta, Metric: m}, Eps: 0.05, Delta: 0.1}
	sres, err := Run(context.Background(), objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampledScore := core.Score(objs, sres.Selected, m, core.AggMax)
	if diff := fres.Score - sampledScore; diff > 0.15 {
		t.Errorf("sampled score %v much worse than full %v", sampledScore, fres.Score)
	}
	// Sample score and full-data score of the same selection are close
	// (this is the |Score(O,S) − Score(O',S)| quantity of Figure 9(c)).
	if d := math.Abs(sres.SampleScore - sampledScore); d > 0.1 {
		t.Errorf("score difference %v too large", d)
	}
}

func TestRunSmallPopulation(t *testing.T) {
	// Tiny population: the Serfling size still applies (it accounts for
	// the finite population) and never exceeds n. With the Hoeffding
	// bound the whole population is sampled.
	objs := testObjects(50, 5)
	m, _ := sim.NewHybrid(0.5, math.Sqrt2)
	cfg := Config{Config: engine.Config{K: 5, Theta: 0.01, Metric: m}, Eps: 0.05, Delta: 0.1}
	res, err := Run(context.Background(), objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := SerflingSize(50, 0.05, 0.1)
	if res.SampleSize != want || want > 50 {
		t.Errorf("sample size %d, want %d (<= 50)", res.SampleSize, want)
	}
	cfg.Bound = BoundHoeffding
	res, err = Run(context.Background(), objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleSize != 50 {
		t.Errorf("hoeffding sample size %d, want full 50", res.SampleSize)
	}
}

func TestRunValidation(t *testing.T) {
	objs := testObjects(10, 7)
	m, _ := sim.NewHybrid(0.5, math.Sqrt2)
	if _, err := Run(context.Background(), objs, Config{Config: engine.Config{K: 2, Metric: m}, Eps: 2, Delta: 0.1}); err == nil {
		t.Error("bad eps should fail")
	}
	res, err := Run(context.Background(), nil, Config{Config: engine.Config{K: 2, Metric: m}, Eps: 0.05, Delta: 0.1})
	if err != nil || len(res.Selected) != 0 {
		t.Errorf("empty objects: %v, %v", res, err)
	}
}

func TestRunHoeffdingBound(t *testing.T) {
	objs := testObjects(3000, 8)
	m, _ := sim.NewHybrid(0.5, math.Sqrt2)
	cfg := Config{Config: engine.Config{K: 5, Theta: 0.02, Metric: m}, Eps: 0.05, Delta: 0.1, Bound: BoundHoeffding}
	res, err := Run(context.Background(), objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := HoeffdingSize(len(objs), 0.05, 0.1)
	if res.SampleSize != want {
		t.Errorf("sample size %d, want %d", res.SampleSize, want)
	}
}

func TestSamplingRatioUnder2Percent(t *testing.T) {
	// The paper's headline: at most ~2% of a large dataset suffices
	// (Figure 9(b)). With n = 100k and default ε, δ the ratio is far
	// below 2%.
	n := 100000
	m, err := SerflingSize(n, 0.05, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(m) / float64(n); ratio > 0.02 {
		t.Errorf("sampling ratio %v exceeds 2%%", ratio)
	}
}
