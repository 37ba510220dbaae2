package experiments

import (
	"math"
	"math/rand"
	"testing"

	"geosel/internal/dataset"
	"geosel/internal/geo"
)

// TestSharedTermDensity keeps ROADMAP item 3 (posting-list neighbor
// lists for Cosine) closed as a negative result: on object-centred
// squares of 100–1400 objects of the bench fixture, the share of pairs
// with a term in common — the pairs such lists would still visit — is
// above the 0.5 at which core's neighbor index falls back to dense. If
// a new generator pushes the mean under it, the item is worth reopening.
func TestSharedTermDensity(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 100k-object bench fixture")
	}
	store, err := dataset.GenerateStore(dataset.POISpec(100000, 1))
	if err != nil {
		t.Fatal(err)
	}
	objs := store.Collection().Objects
	rng := rand.New(rand.NewSource(1))
	const regions = 15
	var mean float64
	for r := 0; r < regions; r++ {
		target := int(100 * math.Pow(14, float64(r)/(regions-1)))
		center := objs[rng.Intn(len(objs))].Loc
		var pos []int
		for side := 0.001; len(pos) < target; side *= 1.1 {
			pos = store.Region(geo.RectAround(center, side))
		}
		shared, terms := 0, 0
		df := make(map[uint64]int) // term id -> objects of the region holding it
		for i, p := range pos {
			terms += len(objs[p].Vec.Words)
			for _, word := range objs[p].Vec.Words {
				df[word>>32]++
			}
			for _, q := range pos[:i] {
				if objs[p].Vec.Dot(objs[q].Vec) > 0 {
					shared++
				}
			}
		}
		// One evaluation of candidate c scatters over Σ_{t∈c} df(t)
		// postings (sim.Rows.Fill); summed over every c that is Σ_t df(t)².
		postings := 0
		for _, d := range df {
			postings += d * d
		}
		n := float64(len(pos))
		density := float64(shared) / float64(len(pos)*(len(pos)-1)/2)
		t.Logf("%4d objects, %.1f terms each: %.2f of pairs share a term, %.2f·|O| postings per evaluation", len(pos), float64(terms)/n, density, float64(postings)/(n*n))
		mean += density / regions
	}
	if mean < 0.5 {
		t.Errorf("mean shared-term density %.2f is under 0.5: posting-list pruning for Cosine may now pay (ROADMAP item 3)", mean)
	}
}
