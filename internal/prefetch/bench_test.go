package prefetch

import (
	"context"
	"fmt"
	"testing"

	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/livestore"
	"geosel/internal/sim"
)

// BenchmarkPrefetchBounds is the synchronous prefetch of the end-to-end
// benchmark's nav_session workload, in process: one pan and one
// zoom-out bound pass, Cosine, over the benchmark's fixture
// (POISpec(100000, 1)) as geoselserver serves it without -live — a
// frozen live v0. The viewport is grown around the unit square's centre
// until its pan envelope (3× the side, which is also the zoom-out
// envelope at the default scale of 2) holds about 1400 or 2900
// objects, the sizes nav_session's envelopes range over. ns/op and B/op
// are the whole pass: envelope query and bounds.
func BenchmarkPrefetchBounds(b *testing.B) {
	col, err := dataset.Generate(dataset.POISpec(100000, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.Config{Metric: sim.Cosine{}}
	ls, err := livestore.New(col, cfg)
	if err != nil {
		b.Fatal(err)
	}
	view, _ := livestore.Freeze(ls.Current()).Snapshot()
	ctx := context.Background()
	for _, target := range []int{1400, 2900} {
		var vp geo.Viewport
		n := 0
		for half := 0.001; n < target; half *= 1.01 {
			vp = geo.NewViewport(geo.RectAround(geo.Pt(0.5, 0.5), half))
			n = view.CountRegion(vp.PanEnvelope())
		}
		ops := []struct {
			name string
			pass func() (*Bounds, error)
		}{
			{"pan", func() (*Bounds, error) { return PanBounds(ctx, view, vp, cfg.Metric) }},
			{"zoomout", func() (*Bounds, error) {
				return ZoomOutBounds(ctx, view, vp, engine.DefaultMaxZoomOutScale, cfg.Metric)
			}},
		}
		for _, op := range ops {
			b.Run(fmt.Sprintf("op=%s/objects=%d", op.name, target), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					bounds, err := op.pass()
					if err != nil {
						b.Fatal(err)
					}
					if len(bounds.pos) < target {
						b.Fatalf("%d bounds, want at least %d", len(bounds.pos), target)
					}
				}
				b.ReportMetric(float64(n), "objects")
			})
		}
	}
}
