// poiexplorer simulates the paper's motivating scenario end to end: a
// user explores a dense POI dataset on a map, zooming and panning,
// while the session keeps the displayed pins representative, readable
// (visibility constraint) and consistent across operations — with
// prefetching hiding the selection latency.
package main

import (
	"context"
	"fmt"
	"log"

	"geosel"
	"geosel/internal/dataset"
	"geosel/internal/viz"
)

func main() {
	// A Singapore-like POI dataset (synthetic; see internal/dataset).
	store, err := dataset.GenerateStore(dataset.POISpec(60000, 42))
	if err != nil {
		log.Fatal(err)
	}
	col := store.Collection()

	ctx := context.Background()
	sess, err := geosel.NewSession(store, geosel.SessionConfig{
		Config: geosel.EngineConfig{
			K:         12,
			ThetaFrac: 0.02,
			Metric:    geosel.Cosine(),
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	show := func(step string, sel *geosel.Selection) {
		vp := sess.Viewport()
		fmt.Printf("== %s: region %v (zoom level %.1f)\n", step, vp.Region, vp.Level)
		fmt.Printf("   %d objects in view, %d pins (forced %d), score %.3f, response %v, prefetched=%v\n",
			sel.RegionObjects, len(sel.Positions), sel.ForcedCount, sel.Score, sel.Elapsed, sel.Prefetched)
		fmt.Println(viz.ASCIIMap(col.Objects, sel.Positions, vp.Region, 64, 16))
	}

	// 1. Open the map on the city center.
	region := geosel.RectAround(geosel.Pt(0.5, 0.5), 0.15)
	sel, err := sess.Start(ctx, region)
	if err != nil {
		log.Fatal(err)
	}
	show("start", sel)

	// 2. While the user looks around, prefetch bounds for whatever they
	//    do next. A session never does this on its own.
	if err := sess.Prefetch(ctx); err != nil {
		log.Fatal(err)
	}

	// 3. Zoom into the north-east quadrant. Pins that stay in view MUST
	//    remain (zooming consistency).
	before := sess.Visible()
	inner := geosel.RectAround(geosel.Pt(0.55, 0.55), 0.075)
	sel, err = sess.ZoomIn(ctx, inner)
	if err != nil {
		log.Fatal(err)
	}
	show("zoom-in", sel)
	kept := 0
	vis := map[int]bool{}
	for _, p := range sel.Positions {
		vis[p] = true
	}
	for _, p := range before {
		if inner.Contains(col.Objects[p].Loc) {
			if !vis[p] {
				log.Fatalf("zooming consistency violated for object %d", p)
			}
			kept++
		}
	}
	fmt.Printf("   consistency: %d previously visible pins kept\n\n", kept)

	// 4. Pan east; pins in the overlap stay put (panning consistency).
	if err := sess.Prefetch(ctx); err != nil {
		log.Fatal(err)
	}
	sel, err = sess.Pan(ctx, geosel.Pt(0.05, 0))
	if err != nil {
		log.Fatal(err)
	}
	show("pan east", sel)

	// 5. Zoom back out.
	if err := sess.Prefetch(ctx); err != nil {
		log.Fatal(err)
	}
	outer := sess.Viewport().Region.ScaleAroundCenter(2)
	sel, err = sess.ZoomOut(ctx, outer)
	if err != nil {
		log.Fatal(err)
	}
	show("zoom-out", sel)
}
