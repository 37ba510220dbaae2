package sim

import (
	"math/rand"
	"testing"

	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/textsim"
)

func rowsTestObjects(n int, seed int64) []geodata.Object {
	rng := rand.New(rand.NewSource(seed))
	vocab := textsim.NewVocabulary()
	words := []string{"cafe", "bar", "park", "gym", "zoo", "pier"}
	objs := make([]geodata.Object, n)
	for i := range objs {
		text := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		objs[i] = geodata.Object{
			ID:     i,
			Loc:    geo.Pt(rng.Float64(), rng.Float64()),
			Weight: rng.Float64(),
			Vec:    textsim.FromText(vocab, text),
		}
	}
	// Textless objects exercise the zero-norm cases, against each other
	// and across a block boundary.
	objs[0].Vec = textsim.Vector{}
	objs[n-1].Vec = textsim.Vector{}
	return objs
}

// The one oracle of pair evaluation: whatever Rows compiles a metric
// into, Fill and Gather write bitwise the value of
// m.Sim(&objs[i], &objs[c]) — for every pair including i == c, over
// blocks that do not divide the object count, and for degenerate
// parameters. (The test names predate Rows; the test floor list pins
// them.)
func TestCompileKernelMatchesInterface(t *testing.T) {
	const n = 2*RowBlock + 88
	objs := rowsTestObjects(n, 7)
	hybrid, err := NewHybrid(0.4, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	precomputed, err := NewPrecomputed(objs, hybrid)
	if err != nil {
		t.Fatal(err)
	}
	quarter := Func(func(a, b *geodata.Object) float64 { return 0.25 })
	cases := []struct {
		name string
		m    Metric
		kind rowsKind
	}{
		{"cosine", Cosine{}, rowsCosine},
		{"euclidean", EuclideanProximity{MaxDist: 0.7}, rowsEuclid},
		{"euclidean-degenerate", EuclideanProximity{}, rowsGeneric},
		{"gaussian", GaussianProximity{Sigma: 0.2}, rowsGauss},
		{"gaussian-degenerate", GaussianProximity{}, rowsGeneric},
		{"hybrid", hybrid, rowsHybrid},
		{"hybrid-gaussian", Hybrid{Alpha: 0.3, Text: Cosine{}, Spatial: GaussianProximity{Sigma: 0.2}}, rowsHybrid},
		{"hybrid-degenerate", Hybrid{Alpha: 0.3, Text: Cosine{}, Spatial: GaussianProximity{}}, rowsHybrid},
		{"hybrid-custom-part", Hybrid{Alpha: 0.5, Text: quarter, Spatial: EuclideanProximity{MaxDist: 1}}, rowsHybrid},
		{"custom", Func(func(a, b *geodata.Object) float64 { return a.Loc.X * b.Loc.X }), rowsGeneric},
		{"precomputed", precomputed, rowsGeneric},
	}
	// A shuffled index list, so Gather sees c itself and both textless
	// objects at arbitrary offsets.
	perm := make([]int32, n)
	for i, p := range rand.New(rand.NewSource(11)).Perm(n) {
		perm[i] = int32(p)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRows(tc.m, objs)
			if r.kind != tc.kind {
				t.Fatalf("compiled to kind %d, want %d", r.kind, tc.kind)
			}
			var buf [RowBlock]float64
			for c := range objs {
				for lo := 0; lo < n; lo += RowBlock {
					hi := min(lo+RowBlock, n)
					r.Fill(buf[:], lo, hi, c)
					for i := lo; i < hi; i++ {
						if got, want := buf[i-lo], tc.m.Sim(&objs[i], &objs[c]); got != want {
							t.Fatalf("Fill: (%d,%d) = %v, Sim = %v", i, c, got, want)
						}
					}
					idx := perm[lo:hi]
					r.Gather(buf[:], idx, c)
					for k, i := range idx {
						if got, want := buf[k], tc.m.Sim(&objs[i], &objs[c]); got != want {
							t.Fatalf("Gather: (%d,%d) = %v, Sim = %v", i, c, got, want)
						}
					}
				}
			}
			// Empty ranges write nothing, with or without a buffer.
			buf[0] = -1
			r.Fill(buf[:], 5, 5, 3)
			r.Fill(nil, n, n, 3)
			r.Gather(buf[:], nil, 3)
			r.Gather(nil, nil, 3)
			if buf[0] != -1 {
				t.Fatal("an empty range wrote to the buffer")
			}
		})
	}
}

func TestCompileKernelHybridNilParts(t *testing.T) {
	objs := rowsTestObjects(3, 8)
	// A hand-built Hybrid with nil parts must compile to the generic
	// kind (calling Sim on it would panic either way; compiling must
	// not).
	if r := NewRows(Hybrid{Alpha: 0.5}, objs); r.kind != rowsGeneric {
		t.Fatalf("nil-part hybrid compiled to kind %d", r.kind)
	}
}
