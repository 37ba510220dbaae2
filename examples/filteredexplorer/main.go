// filteredexplorer demonstrates three library extensions working
// together: TF-IDF reweighting of the term vectors, a filter predicate
// restricting the session to matching objects (the paper's "names
// should contain 'restaurant'" scenario), and the session history
// (back button).
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"geosel"
	"geosel/internal/dataset"
	"geosel/internal/geodata"
)

func main() {
	// Generate a POI-like dataset, then sharpen its similarities with
	// TF-IDF (cluster topic words act like stop words otherwise).
	col, err := dataset.Generate(dataset.POISpec(40000, 11))
	if err != nil {
		log.Fatal(err)
	}
	col.ApplyTFIDF()
	store, err := geodata.NewStore(col)
	if err != nil {
		log.Fatal(err)
	}

	// Pick a reasonably common topic word to filter on, so the demo is
	// dataset-independent.
	counts := map[string]int{}
	for i := range col.Objects {
		for _, w := range strings.Fields(col.Objects[i].Text) {
			if strings.HasPrefix(w, "t") {
				counts[w]++
			}
		}
	}
	keyword, best := "", 0
	for w, c := range counts {
		if c > best {
			keyword, best = w, c
		}
	}
	fmt.Printf("filtering on keyword %q (%d of %d objects)\n", keyword, best, col.Len())

	ctx := context.Background()
	sess, err := geosel.NewSession(store, geosel.SessionConfig{
		Config: geosel.EngineConfig{
			K:         8,
			ThetaFrac: 0.01,
			Metric:    geosel.Cosine(),
		},
		Filter: func(o *geosel.Object) bool {
			return strings.Contains(o.Text, keyword)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	region := geosel.RectAround(geosel.Pt(0.5, 0.5), 0.35)
	sel, err := sess.Start(ctx, region)
	if err != nil {
		log.Fatal(err)
	}
	show := func(step string, sel *geosel.Selection) {
		fmt.Printf("== %s: %d matching objects in view, %d pins\n",
			step, sel.RegionObjects, len(sel.Positions))
		for _, p := range sel.Positions {
			o := &col.Objects[p]
			fmt.Printf("   id=%-7d %v  %s\n", o.ID, o.Loc, o.Text)
		}
	}
	show("start (filtered)", sel)
	for _, p := range sel.Positions {
		if !strings.Contains(col.Objects[p].Text, keyword) {
			log.Fatalf("filter violated by object %d", p)
		}
	}

	// Navigate in, then use the back button.
	sel, err = sess.ZoomIn(ctx, region.ScaleAroundCenter(0.5))
	if err != nil {
		log.Fatal(err)
	}
	show("zoom-in", sel)

	if !sess.CanBack() {
		log.Fatal("expected history after zoom")
	}
	sel, err = sess.Back()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== back: restored %d pins at %v\n", len(sel.Positions), sess.Viewport().Region)
}
