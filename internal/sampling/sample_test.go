package sampling

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"geosel/internal/core"
	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sim"
)

// fixture is the POI-like collection the sampler's properties are
// checked over, behind its grid.
func fixture(t testing.TB) *geodata.Store {
	t.Helper()
	store, err := dataset.GenerateStore(dataset.POISpec(20000, 1))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// entry is an object's index with its key, ordered by (key, index):
// the order a sample takes objects in.
type entry struct {
	key uint64
	i   int
}

func (a entry) less(b entry) bool { return a.key < b.key || a.key == b.key && a.i < b.i }

// checkSample asserts that got is sample(objs, m): min(m, n) indices,
// strictly ascending, and every one ordered (by key, then index) before
// every index left out.
func checkSample(t testing.TB, objs []geodata.Object, m int, got []int) {
	t.Helper()
	if want := min(max(m, 0), len(objs)); len(got) != want {
		t.Fatalf("sample of %d at m = %d has %d indices, want %d", len(objs), m, len(got), want)
	}
	in := make([]bool, len(objs))
	for j, i := range got {
		if j > 0 && i <= got[j-1] {
			t.Fatalf("sample not strictly ascending at %d: %v", j, got)
		}
		in[i] = true
	}
	// The largest (key, index) taken must order before the smallest left.
	var last, first *entry
	for i := range objs {
		e := entry{key(&objs[i]), i}
		if in[i] && (last == nil || last.less(e)) {
			last = &e
		}
		if !in[i] && (first == nil || e.less(*first)) {
			first = &e
		}
	}
	if last != nil && first != nil && first.less(*last) {
		t.Fatalf("index %d (key %#x) taken over index %d (key %#x)", last.i, last.key, first.i, first.key)
	}
}

// checkNested asserts that the part of sample(objs, m) inside the
// subsequence sub (ascending indices into objs) is inside sample(sub, m).
func checkNested(t testing.TB, objs []geodata.Object, sub []int, m int) {
	t.Helper()
	subObjs := make([]geodata.Object, len(sub))
	for j, i := range sub {
		subObjs[j] = objs[i]
	}
	inner := map[int]bool{}
	for _, j := range sample(subObjs, m) {
		inner[sub[j]] = true
	}
	for _, i := range sample(objs, m) {
		if _, ok := slices.BinarySearch(sub, i); ok && !inner[i] {
			t.Fatalf("index %d is in the outer sample and the subset but not in the subset's sample (m = %d)", i, m)
		}
	}
}

func TestSampleSizeAndOrder(t *testing.T) {
	objs := fixture(t).Collection().Objects
	for _, m := range []int{0, 1, 7, 600, len(objs) - 1, len(objs), len(objs) + 5} {
		checkSample(t, objs, m, sample(objs, m))
	}
	if got := sample(nil, 3); len(got) != 0 {
		t.Errorf("empty population sampled %v", got)
	}
}

// TestSampleRepeatedObjects: a population of one object repeated has a
// single key, which a first pass's cut usually leaves out; the reruns
// must still take the m lowest indices, and the few distinct objects
// mixed in must keep their place in (key, index) order.
func TestSampleRepeatedObjects(t *testing.T) {
	for id := range 8 {
		objs := make([]geodata.Object, 2000)
		for i := range objs {
			objs[i] = geodata.Object{ID: id, Loc: geo.Pt(0.5, 0.5)}
		}
		for i := 0; i < len(objs); i += 97 {
			objs[i] = geodata.Object{ID: 1000 + i, Loc: geo.Pt(0.25, 0.75)}
		}
		for _, m := range []int{1, 10, 30, 999} {
			checkSample(t, objs, m, sample(objs, m))
		}
	}
}

// TestSampleGolden pins the hash: a change to key, mix or the seed
// changes every sample, and with it Figures 9–10 and any cached answer
// built on one.
func TestSampleGolden(t *testing.T) {
	objs := fixture(t).Collection().Objects
	got := sample(objs, 8)
	ids := make([]int, len(got))
	for j, i := range got {
		ids[j] = objs[i].ID
	}
	want := []int{7972, 9926, 12097, 14415, 15464, 17768, 18166, 19207}
	if !slices.Equal(ids, want) {
		t.Errorf("first sampled ids %v, want %v", ids, want)
	}
}

// chiSquare returns Σ (o−e)²/e over the buckets.
func chiSquare(observed []int, expected []float64) float64 {
	var x float64
	for i, o := range observed {
		d := float64(o) - expected[i]
		x += d * d / expected[i]
	}
	return x
}

// chiSquareCrit is the 0.999 quantile of the chi-square distribution
// with df degrees of freedom, by the Wilson–Hilferty approximation.
func chiSquareCrit(df int) float64 {
	const z = 3.0902 // standard normal 0.999 quantile
	k := float64(df)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// TestSampleUniform checks that a sample takes objects in proportion to
// their share of the fixture, by ID decile and by spatial cell. Both
// counts are fixed by the fixture and the hash, so the check cannot
// flake.
func TestSampleUniform(t *testing.T) {
	objs := fixture(t).Collection().Objects
	n, m := len(objs), 2000
	got := sample(objs, m)

	// ID deciles: the fixture's IDs are 0..n-1.
	byDecile := make([]int, 10)
	for _, i := range got {
		byDecile[objs[i].ID*10/n]++
	}
	expDecile := make([]float64, 10)
	for d := range expDecile {
		expDecile[d] = float64(m) / 10
	}
	x, crit := chiSquare(byDecile, expDecile), chiSquareCrit(9)
	t.Logf("ID deciles: chi-square %.2f, 0.999 quantile %.2f", x, crit)
	if x > crit {
		t.Errorf("ID deciles %v: chi-square %.2f > %.2f", byDecile, x, crit)
	}

	// An 8×8 grid over the unit square; cells expecting fewer than 5
	// sampled objects pool into one bucket.
	const side = 8
	cell := func(p geo.Point) int {
		x, y := min(int(p.X*side), side-1), min(int(p.Y*side), side-1)
		return y*side + x
	}
	pop := make([]int, side*side)
	for i := range objs {
		pop[cell(objs[i].Loc)]++
	}
	bucket := make([]int, side*side)
	var expCell []float64
	for c, k := range pop {
		if e := float64(m) * float64(k) / float64(n); e >= 5 {
			bucket[c] = len(expCell)
			expCell = append(expCell, e)
		} else {
			bucket[c] = -1
		}
	}
	pooled := len(expCell)
	expCell = append(expCell, 0)
	for c, k := range pop {
		if bucket[c] < 0 {
			bucket[c] = pooled
			expCell[pooled] += float64(m) * float64(k) / float64(n)
		}
	}
	byCell := make([]int, len(expCell))
	for _, i := range got {
		byCell[bucket[cell(objs[i].Loc)]]++
	}
	if expCell[pooled] == 0 {
		expCell, byCell = expCell[:pooled], byCell[:pooled]
	}
	if len(expCell) < 10 {
		t.Fatalf("only %d spatial buckets: the check has no power", len(expCell))
	}
	x, crit = chiSquare(byCell, expCell), chiSquareCrit(len(expCell)-1)
	t.Logf("%d spatial buckets: chi-square %.2f, 0.999 quantile %.2f", len(expCell), x, crit)
	if x > crit {
		t.Errorf("%d spatial buckets: chi-square %.2f > %.2f", len(expCell), x, crit)
	}
}

// TestSampleNested checks sample(R) ∩ R′ ⊆ sample(R′) for nested
// regions R′ ⊂ R of the fixture at equal m.
func TestSampleNested(t *testing.T) {
	store := fixture(t)
	col := store.Collection()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		outer := geo.RectAround(geo.Pt(rng.Float64(), rng.Float64()), 0.05+0.2*rng.Float64())
		inner := geo.RectAround(outer.Center(), outer.Width()/2*rng.Float64())
		rPos, iPos := store.Region(outer), store.Region(inner)
		// iPos as indices into rPos: both ascend, and inner ⊂ outer.
		sub := make([]int, 0, len(iPos))
		for _, p := range iPos {
			j, ok := slices.BinarySearch(rPos, p)
			if !ok {
				t.Fatalf("position %d of the inner region is outside the outer one", p)
			}
			sub = append(sub, j)
		}
		for _, m := range []int{1, 50, 600} {
			checkNested(t, col.Subset(rPos), sub, m)
		}
	}
}

// TestSampleIsAFunctionOfTheObjects: a sample depends on which objects
// a region holds, not on the order they were staged in.
func TestSampleIsAFunctionOfTheObjects(t *testing.T) {
	objs := fixture(t).Collection().Objects[:5000]
	ids := func(objs []geodata.Object) []int {
		var out []int
		for _, i := range sample(objs, 600) {
			out = append(out, objs[i].ID)
		}
		slices.Sort(out)
		return out
	}
	want := ids(objs)
	shuffled := slices.Clone(objs)
	rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if got := ids(shuffled); !slices.Equal(got, want) {
		t.Error("a reordered population sampled other objects")
	}
}

// TestSampleKeysOnLocation: objects that share an ID but not a location
// draw independent keys.
func TestSampleKeysOnLocation(t *testing.T) {
	a := geodata.Object{ID: 7, Loc: geo.Pt(0.25, 0.5)}
	b := geodata.Object{ID: 7, Loc: geo.Pt(0.5, 0.25)}
	if key(&a) == key(&b) {
		t.Error("two locations under one ID share a key")
	}
}

// TestRunCoveringSampleIsExact: once m reaches |O| the sample is every
// object in position order, so SaSS is the exact run bit for bit.
func TestRunCoveringSampleIsExact(t *testing.T) {
	store := fixture(t)
	col := store.Collection()
	pos := store.Region(geo.RectAround(geo.Pt(0.5, 0.5), 0.1))
	objs := col.Subset(pos)
	// Serfling's m is |O| while 2ε²/ln(2/δ)·|O|² < 1.
	const eps, delta = 1e-4, 0.1
	if m, _ := SerflingSize(len(objs), eps, delta); m != len(objs) || len(objs) < 500 {
		t.Fatalf("m = %d for %d objects: the region does not fit the bound", m, len(objs))
	}
	cfg := engine.Config{K: 30, Theta: 0.003 * 0.2, Metric: sim.Cosine{}}
	exact, err := core.SelectRegion(context.Background(), cfg, col, pos, cfg.K, cfg.Theta, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), objs, Config{Config: cfg, Eps: eps, Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleSize != len(objs) {
		t.Fatalf("sample size %d of %d", res.SampleSize, len(objs))
	}
	for j, s := range res.Selected {
		res.Selected[j] = pos[s]
	}
	if !slices.Equal(res.Selected, exact.Positions) {
		t.Errorf("sampled selection %v, exact %v", res.Selected, exact.Positions)
	}
	if math.Float64bits(res.SampleScore) != math.Float64bits(exact.Score) || res.Evals != exact.Evals {
		t.Errorf("score %v evals %d, exact %v evals %d", res.SampleScore, res.Evals, exact.Score, exact.Evals)
	}
	// Result carries no Gains: equal staging is what makes them equal,
	// so pin that the sample staged every position in order.
	if got := sample(objs, len(objs)); len(got) != len(objs) || got[len(got)-1] != len(objs)-1 {
		t.Errorf("a covering sample is not the identity")
	}
}

// FuzzSample checks size, order and nesting over fuzzed objects. IDs
// and coordinates take few values, so equal keys (repeated objects) are
// common and the index tie-break is exercised.
func FuzzSample(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, []byte{0xa5, 0x0f}, uint8(4))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, []byte{0xff}, uint8(2))
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, raw, mask []byte, m uint8) {
		objs := make([]geodata.Object, len(raw))
		for i, b := range raw {
			objs[i] = geodata.Object{ID: int(b & 3), Loc: geo.Pt(float64(b>>2&3)/4, float64(b>>4)/16)}
		}
		checkSample(t, objs, int(m), sample(objs, int(m)))
		var sub []int
		for i := range objs {
			if len(mask) > 0 && mask[i/8%len(mask)]>>(i%8)&1 == 1 {
				sub = append(sub, i)
			}
		}
		checkNested(t, objs, sub, int(m))
	})
}
