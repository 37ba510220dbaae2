package core

import (
	"context"
	"fmt"
	"testing"

	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sim"
)

// benchRegion returns the objects of a square of the end-to-end
// benchmark's fixture (bench/: POISpec(100000, 1)) grown around the
// unit square's centre until it holds at least target objects, and the
// square's side.
func benchRegion(tb testing.TB, store *geodata.Store, target int) ([]geodata.Object, float64) {
	tb.Helper()
	var pos []int
	half := 0.001
	for ; len(pos) < target; half *= 1.02 {
		pos = store.Region(geo.RectAround(geo.Pt(0.5, 0.5), half))
	}
	return store.Collection().Subset(pos), 2 * half / 1.02
}

// BenchmarkSelectCosineCold is one cold /select of the end-to-end
// benchmark's select_cold workload, in process: k = 100, θ = 0.003·side,
// Cosine, at the workload's median region (374 objects), its largest
// (1400) and a larger one (3100). ns/op is CPU time per run.
func BenchmarkSelectCosineCold(b *testing.B) {
	store, err := dataset.GenerateStore(dataset.POISpec(100000, 1))
	if err != nil {
		b.Fatal(err)
	}
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
