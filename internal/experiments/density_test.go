package experiments

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"geosel/internal/core"
	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/lazyheap"
	"geosel/internal/sim"
	"geosel/internal/textsim"
)

// benchLikeRegions returns the bench fixture and 15 object-centred
// squares of it holding 100–1400 objects on a log grid, as positions
// into the fixture, each with its side length.
func benchLikeRegions(t *testing.T) (col *geodata.Collection, regions [][]int, sides []float64) {
	t.Helper()
	store, err := dataset.GenerateStore(dataset.POISpec(100000, 1))
	if err != nil {
		t.Fatal(err)
	}
	col = store.Collection()
	objs := col.Objects
	rng := rand.New(rand.NewSource(1))
	const n = 15
	for r := 0; r < n; r++ {
		target := int(100 * math.Pow(14, float64(r)/(n-1)))
		center := objs[rng.Intn(len(objs))].Loc
		var pos []int
		half := 0.001
		for ; len(pos) < target; half *= 1.1 {
			pos = store.Region(geo.RectAround(center, half))
		}
		regions = append(regions, pos)
		sides = append(sides, 2*half/1.1)
	}
	return col, regions, sides
}

// TestSharedTermDensity keeps the shared-term density experiment
// (posting-list neighbor lists for Cosine, the negative result in
// EXPERIMENTS.md "Linear row sums") closed: on object-centred
// squares of 100–1400 objects of the bench fixture, the share of pairs
// with a term in common — the pairs such lists would still visit — is
// above the 0.5 at which core's neighbor index falls back to dense. If
// a new generator pushes the mean under it, the item is worth reopening.
func TestSharedTermDensity(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 100k-object bench fixture")
	}
	col, regions, _ := benchLikeRegions(t)
	objs := col.Objects
	var mean float64
	for _, pos := range regions {
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
		mean += density / float64(len(regions))
	}
	if mean < 0.5 {
		t.Errorf("mean shared-term density %.2f is under 0.5: posting-list pruning for Cosine may now pay (the shared-term density experiment)", mean)
	}
}

// TestResidualSupport measures, on the same regions, the traffic
// core's residual-support lists (core/residual.go) rest on, with a
// replica of the lazy greedy written out here — Cosine, max
// aggregation, k = 100, θ = 0.003·side, the heap seeded with the
// metric's row sums, one re-evaluation at a time — that counts what
// core does not report: how many evaluations are a candidate's first
// and how many a repeat, and how much of the region is still in the
// candidate's residual support {i : Sim(o_i, c) > best_i} at each. The
// replica is checked against core.Selector pick for pick and
// evaluation for evaluation. The lists turn a repeat evaluation from
// |O| similarities into a walk of that support, so they earn their keep
// while candidates are re-evaluated at least as often as they are
// evaluated and the supports they walk are short; if a later change —
// tighter bounds, say — stops the re-evaluations, this test says so.
func TestResidualSupport(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 100k-object bench fixture")
	}
	const k, share = 100, 4 // share: core's residualShare
	col, regions, sides := benchLikeRegions(t)
	var firsts, repeats int
	var repeatSupport float64
	for r, pos := range regions {
		objs := col.Subset(pos)
		n := len(objs)
		theta := 0.003 * sides[r]
		want, err := (&core.Selector{
			Config:  engine.Config{K: k, Theta: theta, Metric: sim.Cosine{}},
			Objects: objs,
		}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		rows := sim.NewRows(sim.Cosine{}, objs)
		w, ids := make([]float64, n), make([]int, n)
		for i := range objs {
			w[i], ids[i] = objs[i].Weight, i
		}
		seeds := make([]float64, n)
		if !rows.RowSums(seeds, w, ids) {
			t.Fatal("Cosine rows have no linear row sums")
		}
		init := make([]lazyheap.Tuple, n)
		for i := range init {
			init[i] = lazyheap.Tuple{ID: i, Gain: seeds[i], Iter: -1}
		}
		var h lazyheap.Heap
		h.Reset(n)
		h.Heapify(init)
		// fill writes Sim(o_i, c) for every i into row.
		row := make([]float64, n)
		fill := func(c int) {
			rows.Row(row, c, nil)
			for i, v := range row {
				row[i] = textsim.Clamp01(v)
			}
		}
		best := make([]float64, n)
		seen := make([]bool, n)   // evaluated before
		support := make([]int, n) // recorded support length, -1 while unrecorded
		for i := range support {
			support[i] = -1
		}
		var selected []int
		var first, repeat, walks, recorded int
		var firstShare, repeatShare float64
		for iter := 0; len(selected) < k && h.Len() > 0; {
			top, _ := h.Peek()
			if top.Iter == iter {
				selected = append(selected, top.ID)
				h.Remove(top.ID)
				fill(top.ID)
				for i, v := range row {
					best[i] = max(best[i], v)
				}
				for c := range objs {
					if h.Contains(c) && objs[c].Loc.Dist(objs[top.ID].Loc) < theta {
						h.Remove(c)
					}
				}
				iter++
				continue
			}
			c := top.ID
			fill(c)
			// The gain in core's summation order: index order, one
			// accumulator.
			var gain float64
			size := 0
			for i, v := range row {
				if v > best[i] {
					gain += w[i] * (v - best[i])
					size++
				}
			}
			if seen[c] {
				repeat++
				repeatShare += float64(size) / float64(n)
			} else {
				first++
				firstShare += float64(size) / float64(n)
			}
			seen[c] = true
			if support[c] >= 0 {
				walks++
				support[c] = size
			} else if size <= n/share {
				recorded += size
				support[c] = size
			}
			h.RefreshTop(gain, iter)
		}
		if first+repeat != want.Evals || len(selected) != len(want.Selected) {
			t.Fatalf("region %d: the replica made %d evaluations and %d picks, core %d and %d", r, first+repeat, len(selected), want.Evals, len(want.Selected))
		}
		for i, c := range selected {
			if c != want.Selected[i] {
				t.Fatalf("region %d: the replica's pick %d is %d, core's %d", r, i, c, want.Selected[i])
			}
		}
		live := 0
		for _, m := range support {
			live += max(m, 0)
		}
		t.Logf("%4d objects: %.2f·|O| evaluations = %d first (support %.3f·|O|) + %d repeat (%.3f·|O|), %d of them walks; %d pairs recorded (%.3f·|O|²), %d live at the end",
			n, float64(first+repeat)/float64(n), first, firstShare/float64(first), repeat, repeatShare/float64(max(repeat, 1)), walks,
			recorded, float64(recorded)/float64(n*n), live)
		firsts += first
		repeats += repeat
		repeatSupport += repeatShare
	}
	if repeats < firsts {
		t.Errorf("%d repeat evaluations against %d first ones: the lists save less than one dense row per candidate", repeats, firsts)
	}
	if mean := repeatSupport / float64(repeats); mean >= 0.1 {
		t.Errorf("a repeat evaluation's residual support is %.3f·|O| in the mean, want under 0.1: walking it is no longer much cheaper than a dense row", mean)
	}
}
