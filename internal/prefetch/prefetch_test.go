package prefetch

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"geosel/internal/dataset"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sim"
)

func testStore(t *testing.T, n int, seed int64) *geodata.Store {
	t.Helper()
	store, err := dataset.GenerateStore(dataset.POISpec(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// exactMarginal computes the true unnormalized initial marginal gain of
// candidate c over the objects at onPos, with the forced set dPos
// already absorbed — the quantity the bounds must dominate.
func exactMarginal(col *geodata.Collection, onPos, dPos []int, c int, m sim.Metric) float64 {
	var gain float64
	for _, p := range onPos {
		best := 0.0
		for _, d := range dPos {
			if v := m.Sim(&col.Objects[p], &col.Objects[d]); v > best {
				best = v
			}
		}
		if v := m.Sim(&col.Objects[p], &col.Objects[c]); v > best {
			gain += col.Objects[p].Weight * (v - best)
		}
	}
	return gain
}

func TestZoomInBoundsAreUpperBounds(t *testing.T) {
	// Lemma 5.1: the prefetched bound dominates the true marginal gain
	// for any zoom-in target and any forced set.
	store := testStore(t, 3000, 1)
	col := store.Collection()
	m := sim.Cosine{}
	rng := rand.New(rand.NewSource(2))
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.2)
	bounds, err := ZoomInBounds(context.Background(), store, region, m)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		inner, err := dataset.RandomZoomIn(region, 0.3+rng.Float64()*0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		onPos := store.Region(inner)
		if len(onPos) == 0 {
			continue
		}
		// Random forced subset.
		var dPos []int
		for _, p := range onPos {
			if rng.Intn(10) == 0 {
				dPos = append(dPos, p)
			}
		}
		for _, c := range onPos {
			b, ok := bounds.Of(c)
			if !ok {
				t.Fatalf("object %d in zoom target missing from bounds", c)
			}
			if g := exactMarginal(col, onPos, dPos, c, m); b < g-1e-9 {
				t.Fatalf("bound %v below true marginal %v for candidate %d", b, g, c)
			}
		}
	}
}

func TestZoomOutBoundsAreUpperBounds(t *testing.T) {
	store := testStore(t, 3000, 3)
	col := store.Collection()
	m := sim.Cosine{}
	rng := rand.New(rand.NewSource(4))
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.1)
	vp := geo.NewViewport(region)
	const maxScale = 2
	bounds, err := ZoomOutBounds(context.Background(), store, vp, maxScale, m)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		outer, err := dataset.RandomZoomOut(region, 1.2+rng.Float64()*(maxScale-1.2), rng)
		if err != nil {
			t.Fatal(err)
		}
		onPos := store.Region(outer)
		for _, c := range onPos {
			b, ok := bounds.Of(c)
			if !ok {
				t.Fatalf("object %d in zoom-out target missing from bounds", c)
			}
			if g := exactMarginal(col, onPos, nil, c, m); b < g-1e-9 {
				t.Fatalf("bound %v below true marginal %v", b, g)
			}
		}
	}
}

func TestPanBoundsAreUpperBounds(t *testing.T) {
	store := testStore(t, 3000, 5)
	col := store.Collection()
	m := sim.Cosine{}
	rng := rand.New(rand.NewSource(6))
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.12)
	vp := geo.NewViewport(region)
	bounds, err := PanBounds(context.Background(), store, vp, m)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		d, err := dataset.RandomPan(region, 0.2+rng.Float64()*0.8, rng)
		if err != nil {
			t.Fatal(err)
		}
		newRegion := region.Translate(d)
		onPos := store.Region(newRegion)
		var dPos []int
		for _, p := range onPos {
			if region.Contains(col.Objects[p].Loc) && rng.Intn(5) == 0 {
				dPos = append(dPos, p)
			}
		}
		for _, c := range onPos {
			b, ok := bounds.Of(c)
			if !ok {
				t.Fatalf("object %d in pan target missing from bounds", c)
			}
			if g := exactMarginal(col, onPos, dPos, c, m); b < g-1e-9 {
				t.Fatalf("bound %v below true marginal %v", b, g)
			}
		}
	}
}

func TestPairwiseBoundsEmpty(t *testing.T) {
	store := testStore(t, 10, 11)
	got, err := PairwiseBounds(context.Background(), store.Collection(), nil, sim.Cosine{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.pos) != 0 {
		t.Errorf("empty envelope should give empty bounds, got %d", len(got.pos))
	}
}

func TestPanBoundsSubsetOfPairwise(t *testing.T) {
	// Lemma 5.3's per-object window restriction can only tighten the
	// plain envelope bound.
	store := testStore(t, 1500, 12)
	m := sim.Cosine{}
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.1)
	vp := geo.NewViewport(region)
	env := vp.PanEnvelope()
	envPos := store.Region(env)
	plain, err := PairwiseBounds(context.Background(), store.Collection(), envPos, m)
	if err != nil {
		t.Fatal(err)
	}
	pan, err := PanBounds(context.Background(), store, vp, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range envPos {
		pb, _ := pan.Of(p)
		b, _ := plain.Of(p)
		if pb > b+1e-9 {
			t.Fatalf("pan bound %v exceeds plain envelope bound %v", pb, b)
		}
	}
}

// TestBoundsCostIndependentOfCollection pins the compile scope of a
// bound pass: it may allocate in proportion to its envelope, never to
// the collection the envelope was cut from. A pass that compiled the
// metric over all 100 000 objects copied ~5.6 MB of vector headers.
func TestBoundsCostIndependentOfCollection(t *testing.T) {
	store := testStore(t, 100000, 1)
	// Grow a window around a cluster until it holds about 500 objects.
	center := store.Collection().Objects[0].Loc
	var region geo.Rect
	for side := 0.001; ; side *= 1.1 {
		region = geo.RectAround(center, side)
		if n := len(store.Region(region)); n >= 450 {
			if n > 700 {
				t.Fatalf("window jumped to %d objects", n)
			}
			break
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bounds, err := ZoomInBounds(context.Background(), store, region, sim.Cosine{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds.pos) < 450 {
		t.Fatalf("%d bounds", len(bounds.pos))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("one ZoomInBounds over %d objects allocated %d bytes, want < 1 MiB", len(bounds.pos), alloc)
	}
}

// TestLinearBoundsSkipTheRows guards the cost model of a bound pass on
// the served metric: Cosine's row sums are linear (sim.Rows.RowSums),
// so a Lemma 5.2 pass over ~2000 objects evaluates no pair at all. It
// shows as two things a row-by-row pass cannot do: it finishes under a
// context that was cancelled before it began (ctx is checked before
// every row), and it allocates under 1 MiB. The same metric behind an
// opaque sim.Func is the control: n² spied calls, and ctx.Err() when
// cancelled.
func TestLinearBoundsSkipTheRows(t *testing.T) {
	store := testStore(t, 30000, 5)
	center := store.Collection().Objects[0].Loc
	var vp geo.Viewport
	n := 0
	for side := 0.002; n < 1800; side *= 1.1 {
		vp = geo.NewViewport(geo.RectAround(center, side))
		n = len(store.Region(vp.ZoomOutEnvelope(2)))
	}
	if n > 3000 {
		t.Fatalf("envelope jumped to %d objects", n)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	linear, err := ZoomOutBounds(cancelled, store, vp, 2, sim.Cosine{})
	runtime.ReadMemStats(&after)
	if err != nil || len(linear.pos) != n {
		t.Fatalf("Cosine pass under a cancelled ctx: %d of %d bounds, err = %v", len(linear.pos), n, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("one ZoomOutBounds over %d objects allocated %d bytes, want < 1 MiB", n, alloc)
	}

	var calls atomic.Int64
	spy := sim.Func(func(a, b *geodata.Object) float64 {
		calls.Add(1)
		return sim.Cosine{}.Sim(a, b)
	})
	if _, err := ZoomOutBounds(cancelled, store, vp, 2, spy); err != context.Canceled {
		t.Fatalf("opaque pass under a cancelled ctx: err = %v, want context.Canceled", err)
	}
	calls.Store(0)
	quadratic, err := ZoomOutBounds(context.Background(), store, vp, 2, spy)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got < int64(n)*int64(n) {
		t.Fatalf("the spy saw %d of %d pairs: the control measured nothing", got, n*n)
	}
	// Both are the Lemma 5.2 sum; the linear one is above it by at most
	// what float32 unit weights allow (sim.Rows.RowSums): (n + maxnnz)·2⁻²³
	// relative.
	maxnnz := 0
	for _, p := range store.Region(vp.ZoomOutEnvelope(2)) {
		maxnnz = max(maxnnz, len(store.Collection().Objects[p].Vec.Words))
	}
	slack := 1 + float64(n+maxnnz)*0x1p-23
	for _, p := range store.Region(vp.ZoomOutEnvelope(2)) {
		q, _ := quadratic.Of(p)
		if l, _ := linear.Of(p); l < q || l > q*slack {
			t.Fatalf("position %d: linear bound %v, row bound %v", p, l, q)
		}
	}

	// Degenerate envelopes take the same path; an object alone in its
	// envelope is bounded by its own weight, up to the same slack at n = 1.
	objs := store.Collection().Objects
	for _, envelope := range [][]int{nil, store.Region(vp.Region)[:1]} {
		got, err := PairwiseBounds(cancelled, store.Collection(), envelope, sim.Cosine{})
		if err != nil || len(got.pos) != len(envelope) {
			t.Fatalf("envelope of %d: %d bounds, err = %v", len(envelope), len(got.pos), err)
		}
		for _, p := range envelope {
			b, _ := got.Of(p)
			if w := objs[p].Weight; b < w || b > w*(1+float64(1+maxnnz)*0x1p-23) {
				t.Errorf("one-object envelope: bound %v, want the object's weight %v", b, w)
			}
		}
	}
}

// TestShortSupportBoundsAreTheLemmaSums holds the bound passes, on a
// metric that is zero on almost every pair of a clustered instance, to
// the sums Lemmas 5.1 and 5.3 write down: every term, zeros included,
// added in envelope (5.1) or window (5.3) order — bit for bit.
func TestShortSupportBoundsAreTheLemmaSums(t *testing.T) {
	store, err := dataset.GenerateStore(dataset.UKSpec(2048, 9))
	if err != nil {
		t.Fatal(err)
	}
	objs := store.Collection().Objects
	m := sim.EuclideanProximity{MaxDist: 0.04}
	ctx := context.Background()

	envPos := store.Region(geo.WorldUnit)
	if len(envPos) != len(objs) {
		t.Fatalf("envelope holds %d of %d objects", len(envPos), len(objs))
	}
	pairwise := make(map[int]float64, len(envPos))
	zeros := 0
	for _, i := range envPos {
		var sum float64
		for _, j := range envPos {
			v := m.Sim(&objs[j], &objs[i])
			if v == 0 {
				zeros++
			}
			sum += objs[j].Weight * v
		}
		pairwise[i] = sum
	}
	if zeros < len(envPos)*len(envPos)/2 {
		t.Fatalf("only %d of %d pairs are zero; the instance is not short-support", zeros, len(envPos)*len(envPos))
	}

	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.1)
	vp := geo.NewViewport(region)
	env := vp.PanEnvelope()
	pan := make(map[int]float64)
	for _, p := range store.Region(env) {
		o := &objs[p]
		reach := geo.Pt(region.Width(), region.Height())
		window, ok := env.Intersect(geo.Rect{Min: o.Loc.Sub(reach), Max: o.Loc.Add(reach)})
		if !ok {
			t.Fatalf("object %d of the pan envelope has no window in it", p)
		}
		var sum float64
		for _, q := range store.Region(window) {
			sum += objs[q].Weight * m.Sim(o, &objs[q])
		}
		pan[p] = sum
	}
	if len(pan) < 50 {
		t.Fatalf("pan envelope holds %d objects", len(pan))
	}

	same := func(what string, got *Bounds, want map[int]float64) {
		t.Helper()
		if len(got.pos) != len(want) {
			t.Fatalf("%s: %d bounds, want %d", what, len(got.pos), len(want))
		}
		for p, w := range want {
			if g, ok := got.Of(p); !ok || g != w {
				t.Fatalf("%s: bound of position %d = %v (present %v), the lemma's sum is %v", what, p, g, ok, w)
			}
		}
	}
	got, err := PairwiseBounds(ctx, store.Collection(), envPos, m)
	if err != nil {
		t.Fatal(err)
	}
	same("PairwiseBounds", got, pairwise)
	got, err = PanBounds(ctx, store, vp, m)
	if err != nil {
		t.Fatal(err)
	}
	same("PanBounds", got, pan)
}

// TestBoundReadsAllocateNothing pins the hot reads of a bound pass: a
// navigation's Bounds.For over its candidates, on a linear (Cosine) and
// on a summed (Euclidean) pass, and the quadratic row sweep that fills
// the sums of the latter.
func TestBoundReadsAllocateNothing(t *testing.T) {
	ctx := context.Background()
	store := testStore(t, 600, 6)
	col := store.Collection()
	envPos := store.Region(geo.WorldUnit)
	if len(envPos) < 500 {
		t.Fatalf("envelope holds %d objects, want at least 500", len(envPos))
	}
	cands := envPos[len(envPos)/4:]
	dst := make([]float64, len(cands))
	for _, m := range []sim.Metric{sim.Cosine{}, sim.EuclideanProximity{MaxDist: 0.05}} {
		b, err := PairwiseBounds(ctx, col, envPos, m)
		if err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(100, func() {
			if !b.For(dst, cands) {
				panic("an envelope candidate has no bound")
			}
		})
		if avg != 0 {
			t.Fatalf("%T: Bounds.For allocates %v per %d candidates, want 0", m, avg, len(cands))
		}
	}

	sub := col.Subset(envPos)
	rows := sim.NewRows(sim.EuclideanProximity{MaxDist: 0.05}, sub)
	w, row, sums := make([]float64, len(sub)), make([]float64, len(sub)), make([]float64, len(sub))
	for i := range sub {
		w[i] = sub[i].Weight
	}
	avg := testing.AllocsPerRun(10, func() {
		if err := quadraticRows(ctx, w, rows, row, sums); err != nil {
			panic(err)
		}
	})
	if avg != 0 {
		t.Fatalf("quadraticRows allocates %v per %d-object sweep, want 0", avg, len(sub))
	}
}
