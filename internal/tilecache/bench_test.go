package tilecache

import (
	"context"
	"sort"
	"testing"

	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/livestore"
	"geosel/internal/sim"
)

// BenchmarkWarmSelectParallel is warm viewports served from every P at
// once through AppendSelectJSON: the sixteen densest 0.034-side
// viewports of the 100 000-object POI dataset, k = 100, θ = 0.003·side
// (the benchmark's viewport_warm shape), on a live store's version 0
// and a filled cache. Every serve takes the cache lock once per
// covering tile, so -cpu 1,2 shows what the lock costs under contention.
func BenchmarkWarmSelectParallel(b *testing.B) {
	col, err := dataset.Generate(dataset.POISpec(100000, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.Config{Metric: sim.Cosine{}}
	store, err := livestore.New(col, cfg)
	if err != nil {
		b.Fatal(err)
	}
	view, version := store.Snapshot()
	const side, k = 0.034, 100
	theta := 0.003 * side
	type viewport struct {
		r geo.Rect
		n int
	}
	var all []viewport
	for x := 0.0; x+side <= 1; x += side {
		for y := 0.0; y+side <= 1; y += side {
			r := geo.Rect{Min: geo.Pt(x, y), Max: geo.Pt(x+side, y+side)}
			all = append(all, viewport{r, view.CountRegion(r)})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].n > all[j].n })
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var regions []geo.Rect
	for _, vp := range all[:16] {
		for pass := 0; pass < 2; pass++ { // fill the tiles, then serve warm
			_, res, err := c.AppendSelectJSON(ctx, view, version, vp.r, k, theta, nil)
			if err != nil {
				b.Fatal(err)
			}
			if pass == 1 && !res.Fallback && res.TileMisses == 0 {
				regions = append(regions, vp.r)
			}
		}
	}
	if len(regions) < 8 {
		b.Fatalf("%d of 16 viewports served warm", len(regions))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]byte, 0, 64<<10)
		for i := 0; pb.Next(); i++ {
			var res Result
			var err error
			dst, res, err = c.AppendSelectJSON(ctx, view, version, regions[i%len(regions)], k, theta, dst[:0])
			if err != nil || res.Fallback || res.TileMisses != 0 {
				panic("warm serve regressed mid-measurement")
			}
		}
	})
}
