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
	"math/rand"
	"os"

	"geosel/internal/core"
	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sampling"
	"geosel/internal/sim"
	"geosel/internal/viz"
)

func main() {
	var (
		data      = flag.String("data", "", "dataset file (CSV, JSONL or binary snapshot; see cmd/datagen); empty = generate")
		preset    = flag.String("preset", "poi", "preset when generating: uk, us or poi")
		n         = flag.Int("n", 50000, "generated dataset size")
		seed      = flag.Int64("seed", 1, "seed for generation and sampling")
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
	col, err := loadOrGenerate(data, preset, n, seed)
	if err != nil {
		return err
	}
	store, err := geodata.NewStore(col)
	if err != nil {
		return err
	}
	region := geo.RectAround(geo.Pt(cx, cy), side/2)
	regionPos := store.Region(region)
	objs := col.Subset(regionPos)
	theta := thetaFrac * side
	metric := sim.Cosine{}

	cfg := engine.Config{K: k, Theta: theta, Metric: metric}
	ctx := context.Background()

	var selected []int
	var score float64
	if sample {
		res, err := sampling.Run(ctx, objs, sampling.Config{
			Config: cfg,
			Eps:    0.05, Delta: 0.1, Rng: rand.New(rand.NewSource(seed)),
		})
		if err != nil {
			return err
		}
		selected = res.Selected
		score = core.Score(objs, selected, metric, core.AggMax)
		fmt.Printf("sampled %d of %d region objects\n", res.SampleSize, len(objs))
	} else {
		sel := &core.Selector{Config: cfg, Objects: objs}
		res, err := sel.Run(ctx)
		if err != nil {
			return err
		}
		selected = res.Selected
		score = res.Score
	}

	fmt.Printf("region %v: %d objects, selected %d, representative score %.4f\n",
		region, len(objs), len(selected), score)
	for rank, s := range selected {
		o := &objs[s]
		text := o.Text
		if len(text) > 48 {
			text = text[:45] + "..."
		}
		fmt.Printf("%3d. id=%-8d loc=%v w=%.2f  %s\n", rank+1, o.ID, o.Loc, o.Weight, text)
	}
	if showMap {
		fmt.Println(viz.ASCIIMap(objs, selected, region, 72, 28))
	}
	return nil
}

func loadOrGenerate(data, preset string, n int, seed int64) (*geodata.Collection, error) {
	if data != "" {
		f, err := os.Open(data)
		if err != nil {
			return nil, err
		}
		// Read-only file: the data's integrity is established by ReadAuto,
		// not by Close.
		defer f.Close() //geolint:errok
		return dataset.ReadAuto(f)
	}
	var spec dataset.Spec
	switch preset {
	case "uk":
		spec = dataset.UKSpec(n, seed)
	case "us":
		spec = dataset.USSpec(n, seed)
	case "poi":
		spec = dataset.POISpec(n, seed)
	default:
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
	return dataset.Generate(spec)
}
