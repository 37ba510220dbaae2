package geosel

// One benchmark per paper exhibit plus the ablations called out in
// DESIGN.md. The full parameter sweeps behind each figure live in
// cmd/benchrunner (internal/experiments); the benches here time the hot
// path of each exhibit at its Table 2 defaults so `go test -bench=.`
// gives a one-screen performance picture.

import (
	"context"
	"geosel/internal/engine"
	"math/rand"
	"sync"
	"testing"
	"time"

	"geosel/internal/baselines"
	"geosel/internal/core"
	"geosel/internal/dataset"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/isos"
	"geosel/internal/sampling"
	"geosel/internal/sim"
)

// benchEnv is built once and shared by every benchmark.
type benchEnv struct {
	store  *geodata.Store
	region geo.Rect
	objs   []geodata.Object
	theta  float64
	metric sim.Metric
}

var (
	benchOnce sync.Once
	bench     benchEnv
)

func env(b *testing.B) *benchEnv {
	b.Helper()
	return envShared()
}

// envShared builds the benchmark environment on first use; it is shared
// by the benchmarks and by the parallel-engine benchmark instance.
func envShared() *benchEnv {
	benchOnce.Do(func() {
		spec := dataset.UKSpec(60000, 1)
		spec.TopicsPerCluster = 200
		spec.WordsPerObject = 6
		spec.TopicWordFrac = 0.2
		store, err := dataset.GenerateStore(spec)
		if err != nil {
			panic(err)
		}
		// Probe random regions and keep the one whose population is
		// closest to ~2500 objects — the paper's mid-density regime,
		// where every mechanism under benchmark has real work to do.
		rng := rand.New(rand.NewSource(2))
		var region geo.Rect
		bestDiff := 1 << 62
		for i := 0; i < 30; i++ {
			r, err := dataset.RandomRegion(store, 0.02, rng)
			if err != nil {
				panic(err)
			}
			d := store.CountRegion(r) - 2500
			if d < 0 {
				d = -d
			}
			if d < bestDiff {
				bestDiff, region = d, r
			}
		}
		bench = benchEnv{
			store:  store,
			region: region,
			objs:   store.Collection().Subset(store.Region(region)),
			theta:  0.003 * region.Width(),
			metric: sim.Cosine{},
		}
	})
	return &bench
}

// BenchmarkFig7Greedy times the paper's main algorithm at defaults
// (Figures 7-8, Greedy bar).
func BenchmarkFig7Greedy(b *testing.B) {
	e := env(b)
	b.ReportMetric(float64(len(e.objs)), "region-objs")
	for i := 0; i < b.N; i++ {
		s := &core.Selector{Config: engine.Config{K: 100, Theta: e.theta, Metric: e.metric}, Objects: e.objs}
		if _, err := s.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Baselines times the comparison methods (Figures 7-8).
func BenchmarkFig7Baselines(b *testing.B) {
	e := env(b)
	b.Run("Random", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < b.N; i++ {
			baselines.Random(e.objs, 100, e.theta, rng)
		}
	})
	b.Run("KMeans", func(b *testing.B) {
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < b.N; i++ {
			baselines.KMeans(e.objs, 100, 30, rng)
		}
	})
	b.Run("MaxMin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.MaxMin(e.objs, 100, e.metric)
		}
	})
	b.Run("MaxSum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.MaxSum(e.objs, 100, e.metric)
		}
	})
	b.Run("DisC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.DisCWithSize(e.objs, 100, e.metric)
		}
	})
}

// BenchmarkFig9SaSS times the sampling extension at default ε/δ
// (Figures 9-10); compare with BenchmarkFig7Greedy for the speedup.
func BenchmarkFig9SaSS(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		_, err := sampling.Run(context.Background(), e.objs, sampling.Config{Config: engine.Config{K: 100, Theta: e.theta, Metric: e.metric}, Eps: 0.05, Delta: 0.1})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11RegionSizes sweeps the query region size (Figure 11).
func BenchmarkFig11RegionSizes(b *testing.B) {
	e := env(b)
	for _, frac := range []float64{0.005, 0.01, 0.02} {
		b.Run(sizeName(frac), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			region, err := dataset.RandomRegion(e.store, frac, rng)
			if err != nil {
				b.Fatal(err)
			}
			objs := e.store.Collection().Subset(e.store.Region(region))
			b.ReportMetric(float64(len(objs)), "region-objs")
			theta := 0.003 * region.Width()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := &core.Selector{Config: engine.Config{K: 100, Theta: theta, Metric: e.metric}, Objects: objs}
				if _, err := s.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(frac float64) string {
	switch frac {
	case 0.005:
		return "half-default"
	case 0.01:
		return "default"
	default:
		return "double-default"
	}
}

// BenchmarkFig13Navigation times one navigation operation per mode
// (Figure 13): cold consistency-aware greedy versus prefetched, with a
// full re-selection for reference. ns/op covers the full cycle
// (session start + prefetch + operation) so the iteration count stays
// bounded; the paper's headline quantity — the user-visible response
// time of the operation itself, excluding prefetch work done during
// think time — is reported as the custom metric "response-ns".
func BenchmarkFig13Navigation(b *testing.B) {
	e := env(b)
	for _, mode := range []string{"Reselect", "Greedy", "Pre"} {
		for _, opName := range []string{"in", "out", "pan"} {
			b.Run(mode+"-"+opName, func(b *testing.B) {
				var response int64
				for i := 0; i < b.N; i++ {
					response += benchNavigate(b, e, mode, opName)
				}
				b.ReportMetric(float64(response)/float64(b.N), "response-ns")
			})
		}
	}
}

// benchNavigate performs one full navigation cycle and returns the
// response-path nanoseconds (the selection for the new region).
func benchNavigate(b *testing.B, e *benchEnv, mode, opName string) int64 {
	b.Helper()
	cfg := isos.Config{Config: engine.Config{K: 100, ThetaFrac: 0.003, Metric: e.metric, MaxZoomOutScale: 2}}
	var target geo.Rect
	switch opName {
	case "in":
		target = e.region.ScaleAroundCenter(0.5)
	case "out":
		target = e.region.ScaleAroundCenter(2)
	default:
		target = e.region.Translate(geo.Pt(e.region.Width()/2, 0))
	}
	if mode == "Reselect" {
		objs := e.store.Collection().Subset(e.store.Region(target))
		s := &core.Selector{Config: engine.Config{K: 100, Theta: 0.003 * target.Width(), Metric: e.metric}, Objects: objs}
		d := timeNow()
		if _, err := s.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		return timeNow() - d
	}
	sess, err := isos.NewSession(e.store, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Start(context.Background(), e.region); err != nil {
		b.Fatal(err)
	}
	if mode == "Pre" {
		var op geo.Op
		switch opName {
		case "in":
			op = geo.OpZoomIn
		case "out":
			op = geo.OpZoomOut
		default:
			op = geo.OpPan
		}
		if err := sess.Prefetch(context.Background(), op); err != nil {
			b.Fatal(err)
		}
	}
	var sel *isos.Selection
	switch opName {
	case "in":
		sel, err = sess.ZoomIn(context.Background(), target)
	case "out":
		sel, err = sess.ZoomOut(context.Background(), target)
	default:
		sel, err = sess.Pan(context.Background(), geo.Pt(e.region.Width()/2, 0))
	}
	if err != nil {
		b.Fatal(err)
	}
	return sel.Elapsed.Nanoseconds()
}

// BenchmarkAblationLazyVsNaive isolates the lazy-forward strategy
// (Section 4.1): identical selections, wildly different marginal-
// evaluation counts.
func BenchmarkAblationLazyVsNaive(b *testing.B) {
	e := env(b)
	// Cap the instance so the naive variant terminates promptly.
	objs := e.objs
	if len(objs) > 1200 {
		objs = objs[:1200]
	}
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := &core.Selector{Config: engine.Config{K: 50, Theta: e.theta, Metric: e.metric}, Objects: objs}
			if _, err := s.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := &core.Selector{Config: engine.Config{K: 50, Theta: e.theta, Metric: e.metric, DisableLazy: true}, Objects: objs}
			if _, err := s.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationConflictRemoval isolates the grid index used for
// visibility-conflict removal (Algorithm 1, lines 11-12).
func BenchmarkAblationConflictRemoval(b *testing.B) {
	e := env(b)
	for _, disable := range []bool{false, true} {
		name := "grid"
		if disable {
			name = "linear"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := &core.Selector{Config: engine.Config{K: 100, Theta: e.theta, Metric: e.metric, DisableGrid: disable}, Objects: e.objs}
				if _, err := s.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSampleBound compares the two sample-size
// inequalities (Equations 6 and 7) end to end.
func BenchmarkAblationSampleBound(b *testing.B) {
	e := env(b)
	for _, bound := range []sampling.Bound{sampling.BoundSerfling, sampling.BoundHoeffding} {
		b.Run(bound.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := sampling.Run(context.Background(), e.objs, sampling.Config{Config: engine.Config{K: 100, Theta: e.theta, Metric: e.metric}, Eps: 0.05, Delta: 0.1, Bound: bound})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// timeNow returns a monotonic nanosecond reading for manual spans.
func timeNow() int64 { return time.Now().UnixNano() }

// BenchmarkSubstrateRegionQuery times the region queries feeding every
// selection.
func BenchmarkSubstrateRegionQuery(b *testing.B) {
	e := env(b)
	var n int
	for i := 0; i < b.N; i++ {
		n += len(e.store.Region(e.region))
	}
	_ = n
}

// BenchmarkSubstrateGridConflict times a θ-conflict query on the grid
// as greedy makes it: the square of half-side θ around an object,
// appended into a reused buffer.
func BenchmarkSubstrateGridConflict(b *testing.B) {
	e := env(b)
	g := geodata.NewGrid(e.objs)
	var buf []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.AppendRegion(buf[:0], e.objs, geo.RectAround(e.objs[i%len(e.objs)].Loc, e.theta))
	}
}

// BenchmarkSubstrateCosine times one similarity evaluation — the unit
// everything above is built from.
func BenchmarkSubstrateCosine(b *testing.B) {
	e := env(b)
	m := e.metric
	var acc float64
	for i := 0; i < b.N; i++ {
		a := &e.objs[i%len(e.objs)]
		c := &e.objs[(i*7+1)%len(e.objs)]
		acc += m.Sim(a, c)
	}
	_ = acc
}
