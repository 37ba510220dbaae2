package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sim"
)

// fixture is the end-to-end benchmark's store (bench/: POISpec(100000,
// 1)), generated once per test binary.
var fixture = sync.OnceValues(func() (*geodata.Store, error) {
	return dataset.GenerateStore(dataset.POISpec(100000, 1))
})

func fixtureStore(tb testing.TB) *geodata.Store {
	tb.Helper()
	store, err := fixture()
	if err != nil {
		tb.Fatal(err)
	}
	return store
}

// benchPositions returns the positions of a square of the fixture
// grown around the unit square's centre until it holds at least target
// objects, in the store's region order, and the square's side.
func benchPositions(tb testing.TB, store *geodata.Store, target int) ([]int, float64) {
	tb.Helper()
	var pos []int
	half := 0.001
	for ; len(pos) < target; half *= 1.02 {
		pos = store.Region(geo.RectAround(geo.Pt(0.5, 0.5), half))
	}
	return pos, 2 * half / 1.02
}

// benchRegion returns the objects of benchPositions' square, and its
// side.
func benchRegion(tb testing.TB, store *geodata.Store, target int) ([]geodata.Object, float64) {
	tb.Helper()
	pos, side := benchPositions(tb, store, target)
	return store.Collection().Subset(pos), side
}

// BenchmarkSelectCosineCold is one cold /select of the end-to-end
// benchmark's select_cold workload, in process: k = 100, θ = 0.003·side,
// Cosine, at the workload's median region (374 objects), its largest
// (1400) and a larger one (3100). ns/op is CPU time per run.
func BenchmarkSelectCosineCold(b *testing.B) {
	store := fixtureStore(b)
	for _, target := range []int{374, 1400, 3100} {
		objs, side := benchRegion(b, store, target)
		b.Run(fmt.Sprintf("objects=%d", target), func(b *testing.B) {
			b.ReportAllocs()
			var evals int
			for i := 0; i < b.N; i++ {
				s := &Selector{
					Config:  engine.Config{K: 100, Theta: 0.003 * side, Metric: sim.Cosine{}},
					Objects: objs,
				}
				res, err := s.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				evals = res.Evals
			}
			b.ReportMetric(float64(evals), "evals/op")
		})
	}
}

// BenchmarkSelectRegionServed is one /select as the server runs it:
// SelectRegion stages the region's positions out of the 100 k fixture
// store, which stays live, so the collector marks what a serving
// process holds. Besides B/op and allocs/op it reports gc/op, the
// collections started per select (runtime.MemStats.NumGC over b.N).
//
// Run it with -cpu 1 as well as the default. A single-goroutine
// benchmark on 2 Ps leaves one P idle, and the runtime gives the idle
// P the GC's mark work: the collections a select triggers cost wall
// time the default run does not see, where a loaded server pays them on
// a busy core. Under -cpu 1 every mark worker shares the benchmark's
// only P, so ns/op carries what the allocations cost.
func BenchmarkSelectRegionServed(b *testing.B) {
	store := fixtureStore(b)
	col := store.Collection()
	for _, target := range []int{374, 1400, 3100} {
		pos, side := benchPositions(b, store, target)
		b.Run(fmt.Sprintf("objects=%d", target), func(b *testing.B) {
			b.ReportAllocs()
			cfg := engine.Config{Metric: sim.Cosine{}}
			dst := make([]int, 0, 100)
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			gcs := ms.NumGC
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := SelectRegion(context.Background(), cfg, col, pos, 100, 0.003*side, nil, nil, nil, dst[:0])
				if err != nil {
					b.Fatal(err)
				}
				dst = res.Positions
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.NumGC-gcs)/float64(b.N), "gc/op")
		})
	}
}
