// tweetmap demonstrates selection at scale: a large geo-tagged-tweet
// dataset where running the exact greedy on a dense region would be
// slow, so the SaSS sampling extension (Section 6 of the paper) picks
// the representatives from a theoretically sized uniform sample — with
// a provable (1-ε) score guarantee at confidence 1-δ.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"geosel"
	"geosel/internal/dataset"
	"geosel/internal/viz"
)

func main() {
	fmt.Println("generating a UK-like tweet dataset (150k tweets)...")
	store, err := dataset.GenerateStore(dataset.UKSpec(150000, 7))
	if err != nil {
		log.Fatal(err)
	}

	// Query a city-sized region: probe random regions and keep the one
	// whose population is closest to ~3000 tweets (busy, but small
	// enough that the exact greedy finishes while you watch).
	const targetPop = 3000
	rng := rand.New(rand.NewSource(9))
	var region geosel.Rect
	bestCount, bestDiff := -1, 1<<62
	for i := 0; i < 40; i++ {
		r, err := dataset.RandomRegion(store, 0.04, rng)
		if err != nil {
			log.Fatal(err)
		}
		c := store.CountRegion(r)
		d := c - targetPop
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			bestCount, bestDiff, region = c, d, r
		}
	}
	fmt.Printf("query region %v holds %d tweets; density:\n", region, bestCount)
	fmt.Println(viz.ASCIIHeatmap(store.Collection().Objects, region, 64, 14))

	// Exact greedy...
	ctx := context.Background()
	start := time.Now()
	exact, err := geosel.Select(ctx, store, region, geosel.Options{
		Config: geosel.EngineConfig{K: 100, ThetaFrac: 0.003, Metric: geosel.Cosine()},
	})
	if err != nil {
		log.Fatal(err)
	}
	exactTime := time.Since(start)

	// ...versus SaSS on a sample.
	start = time.Now()
	sampled, err := geosel.Select(ctx, store, region, geosel.Options{
		Config: geosel.EngineConfig{K: 100, ThetaFrac: 0.003, Metric: geosel.Cosine()},
		Sample: true, Eps: 0.05, Delta: 0.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	sassTime := time.Since(start)

	fmt.Printf("\n%-10s %10s %10s %12s %8s\n", "method", "runtime", "selected", "sample size", "score")
	fmt.Printf("%-10s %10v %10d %12d %8.4f\n", "Greedy",
		exactTime.Round(time.Millisecond), len(exact.Positions), exact.SampleSize, exact.Score)
	fmt.Printf("%-10s %10v %10d %12d %8.4f\n", "SaSS",
		sassTime.Round(time.Millisecond), len(sampled.Positions), sampled.SampleSize, sampled.Score)
	fmt.Printf("\nSaSS looked at %.1f%% of the region and kept %.1f%% of Greedy's score, %.0fx faster\n",
		100*float64(sampled.SampleSize)/float64(sampled.RegionObjects),
		100*sampled.Score/exact.Score,
		float64(exactTime)/float64(sassTime))
}
