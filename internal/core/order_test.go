package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/livestore"
	"geosel/internal/sim"
)

// TestRegionOrderSelectsAlikeOverBothIndexes holds the one-order
// contract where it matters: a static geodata.Store and a live store's
// untouched version 0 — two constructors of the one grid — stage every
// region in the same order, so SelectRegion over either returns the
// same positions, gains, score, evaluations and rounds, bit for bit.
// The regions are squares of the end-to-end benchmark's fixture holding
// 200 to 3 000 objects, where the fixture's near-tied gains make any
// difference in staged order show.
func TestRegionOrderSelectsAlikeOverBothIndexes(t *testing.T) {
	store := fixtureStore(t)
	live, err := livestore.New(store.Collection(), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := live.Current()
	cfg := engine.Config{Metric: sim.Cosine{}}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	const regions = 50
	for i := 0; i < regions; i++ {
		target := int(200 * math.Pow(15, rng.Float64()))
		centre := geo.Pt(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64())
		half := 0.002
		for store.CountRegion(geo.RectAround(centre, half)) < target {
			half *= 1.05
		}
		r := geo.RectAround(centre, half)
		a, b := store.Region(r), snap.Region(r)
		theta := 0.003 * 2 * half
		ra, err := SelectRegion(ctx, cfg, store.Collection(), a, 100, theta, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := SelectRegion(ctx, cfg, snap.Collection(), b, 100, theta, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ra.Positions, rb.Positions) || !bitsEqual(ra.Gains, rb.Gains) ||
			math.Float64bits(ra.Score) != math.Float64bits(rb.Score) ||
			ra.Evals != rb.Evals || ra.Rounds != rb.Rounds {
			t.Errorf("region %d (%d objects): static store selects %v score %v evals %d rounds %d; live v0 %v score %v evals %d rounds %d",
				i, len(a), ra.Positions, ra.Score, ra.Evals, ra.Rounds, rb.Positions, rb.Score, rb.Evals, rb.Rounds)
		}
	}
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// BenchmarkRegion is one region query of the end-to-end benchmark's
// fixture through the grid, at squares around the centre holding 200,
// 1 000 and 6 000 objects.
func BenchmarkRegion(b *testing.B) {
	store := fixtureStore(b)
	for _, target := range []int{200, 1000, 6000} {
		half := 0.001
		for store.CountRegion(geo.RectAround(geo.Pt(0.5, 0.5), half)) < target {
			half *= 1.02
		}
		r := geo.RectAround(geo.Pt(0.5, 0.5), half)
		b.Run(fmt.Sprintf("objects=%d", target), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				store.Region(r)
			}
		})
	}
}
