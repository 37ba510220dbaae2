// Command geosel loads a geospatial dataset (or generates one) and runs
// a representative selection for a map region, printing the selected
// objects and optionally an ASCII map.
//
// Usage:
//
//	geosel -data pois.csv -cx 0.5 -cy 0.5 -side 0.1 -k 20
//	geosel -preset uk -n 50000 -cx 0.5 -cy 0.5 -side 0.05 -k 15 -map
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"geosel"
	"geosel/internal/dataset"
	"geosel/internal/viz"
)

func main() {
	var (
		data      = flag.String("data", "", "dataset file (CSV, JSONL or binary snapshot; see cmd/datagen); empty = generate")
		preset    = flag.String("preset", "poi", "preset when generating: uk, us or poi")
		n         = flag.Int("n", 50000, "generated dataset size")
		seed      = flag.Int64("seed", 1, "generation seed")
		cx        = flag.Float64("cx", 0.5, "region center x")
		cy        = flag.Float64("cy", 0.5, "region center y")
		side      = flag.Float64("side", 0.1, "region side length")
		k         = flag.Int("k", 20, "number of objects to select")
		thetaFrac = flag.Float64("theta", 0.003, "visibility threshold as a fraction of the region side")
		sample    = flag.Bool("sample", false, "use SaSS sampling (for dense regions)")
		showMap   = flag.Bool("map", false, "print an ASCII map of the selection")
	)
	flag.Parse()
	if err := run(*data, *preset, *n, *seed, *cx, *cy, *side, *k, *thetaFrac, *sample, *showMap); err != nil {
		fmt.Fprintln(os.Stderr, "geosel:", err)
		os.Exit(1)
	}
}

func run(data, preset string, n int, seed int64, cx, cy, side float64, k int, thetaFrac float64, sample, showMap bool) error {
	col, err := dataset.Load(data, preset, n, seed)
	if err != nil {
		return err
	}
	store, err := geosel.NewStore(col)
	if err != nil {
		return err
	}
	region := geosel.RectAround(geosel.Pt(cx, cy), side/2)
	res, err := geosel.Select(context.Background(), store, region, geosel.Options{
		Config: geosel.EngineConfig{K: k, Theta: thetaFrac * side, Metric: geosel.Cosine()},
		Sample: sample, Eps: 0.05, Delta: 0.1,
	})
	if err != nil {
		return err
	}
	if sample {
		fmt.Printf("sampled %d of %d region objects\n", res.SampleSize, res.RegionObjects)
	}
	fmt.Printf("region %v: %d objects, selected %d, representative score %.4f\n",
		region, res.RegionObjects, len(res.Positions), res.Score)
	for rank, p := range res.Positions {
		o := &col.Objects[p]
		text := o.Text
		if len(text) > 48 {
			text = text[:45] + "..."
		}
		fmt.Printf("%3d. id=%-8d loc=%v w=%.2f  %s\n", rank+1, o.ID, o.Loc, o.Weight, text)
	}
	if showMap {
		fmt.Println(viz.ASCIIMap(col.Objects, res.Positions, region, 72, 28))
	}
	return nil
}
