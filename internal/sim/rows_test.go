package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
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
	// Textless objects exercise the empty-vector cases, against each
	// other and across a block boundary.
	objs[0].Vec = textsim.Vector{}
	objs[n-1].Vec = textsim.Vector{}
	return objs
}

// rawVector hand-builds a vector NewVector would refuse: any ids in any
// order, any weights, any length.
func rawVector(ids []int32, weights []float32) textsim.Vector {
	v := textsim.Vector{Words: make([]uint64, len(ids))}
	for k, id := range ids {
		v.Words[k] = textsim.PackWord(id, weights[k])
	}
	return v
}

// rowsTestN is the object count of the randomized Rows instances.
const rowsTestN = 600

// The one oracle of pair evaluation: whatever Rows compiles a metric
// into, Row writes, for every c and every i including c, what clamps to
// bitwise the value of m.Sim(&objs[i], &objs[c]) — and the metric's own
// value on every kind but Cosine — for degenerate parameters and twins
// of identical text too. (The
// test names predate Rows; the test floor list pins them.)
func TestCompileKernelMatchesInterface(t *testing.T) {
	objs := rowsTestObjects(rowsTestN, 7)
	for _, i := range []int{10, 300, 598} {
		objs[i].Vec = textsim.NewVector(map[int]float64{1: 1, 2: 1, 3: 2})
	}
	if dot := objs[10].Vec.Dot(objs[598].Vec); !(dot > 1) {
		t.Fatalf("twins 10 and 598 have dot product %v, want one the clamp to 1 must catch", dot)
	}
	hybrid, err := NewHybrid(0.4, 1.5)
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
		{"euclidean", EuclideanProximity{MaxDist: 0.7}, rowsGeneric},
		{"euclidean-degenerate", EuclideanProximity{}, rowsGeneric},
		{"hybrid", hybrid, rowsGeneric},
		{"hybrid-degenerate", Hybrid{Alpha: 0.3, Text: Cosine{}, Spatial: EuclideanProximity{}}, rowsGeneric},
		{"hybrid-custom-part", Hybrid{Alpha: 0.5, Text: quarter, Spatial: EuclideanProximity{MaxDist: 1}}, rowsGeneric},
		{"custom", Func(func(a, b *geodata.Object) float64 { return a.Loc.X * b.Loc.X }), rowsGeneric},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRows(tc.m, objs)
			if r.kind != tc.kind {
				t.Fatalf("compiled to kind %d, want %d", r.kind, tc.kind)
			}
			row := make([]float64, len(objs))
			for c := range objs {
				for i := range row {
					row[i] = math.NaN() // an entry Row skips fails below
				}
				r.Row(row, c, nil)
				for i, v := range row {
					if tc.kind == rowsCosine {
						v = textsim.Clamp01(v)
					}
					if got, want := v, tc.m.Sim(&objs[i], &objs[c]); got != want {
						t.Fatalf("Row: (%d,%d) = %v, Sim = %v", i, c, got, want)
					}
				}
			}
		})
	}
}

// TestResetMatchesNewRows reuses one Rows across metrics and object
// sets that grow, shrink and fall back to the generic kind, and holds
// every row and every RowSums bound to a freshly compiled Rows, bit for
// bit: a Rows rebuilt in place keeps nothing of the run before.
func TestResetMatchesNewRows(t *testing.T) {
	hybrid, err := NewHybrid(0.4, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	unsorted := rowsTestObjects(90, 4)
	unsorted[5].Vec = rawVector([]int32{9, 2}, []float32{0.6, 0.8})
	steps := []struct {
		m    Metric
		objs []geodata.Object
	}{
		{Cosine{}, rowsTestObjects(300, 1)},
		{Cosine{}, rowsTestObjects(40, 2)},
		{hybrid, rowsTestObjects(200, 3)},
		{Cosine{}, unsorted},
		{EuclideanProximity{MaxDist: 0.5}, rowsTestObjects(120, 5)},
		{Cosine{}, rowsTestObjects(500, 6)},
		{Func(func(a, b *geodata.Object) float64 { return a.Weight * b.Weight }), rowsTestObjects(30, 7)},
		{Cosine{}, rowsTestObjects(70, 8)},
	}
	reused := new(Rows)
	for k, st := range steps {
		reused.Reset(st.m, st.objs)
		fresh := NewRows(st.m, st.objs)
		if reused.kind != fresh.kind {
			t.Fatalf("step %d: kind %d, fresh %d", k, reused.kind, fresh.kind)
		}
		got, want := make([]float64, len(st.objs)), make([]float64, len(st.objs))
		for c := range st.objs {
			reused.Row(got, c, nil)
			fresh.Row(want, c, nil)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("step %d: row %d entry %d = %v, fresh %v", k, c, i, got[i], want[i])
				}
			}
		}
		w := make([]float64, len(st.objs))
		cs := make([]int, len(st.objs))
		for i := range st.objs {
			w[i], cs[i] = st.objs[i].Weight, i
		}
		okGot := reused.RowSums(got, w, cs)
		okWant := fresh.RowSums(want, w, cs)
		if okGot != okWant || okGot && !slices.Equal(got, want) {
			t.Fatalf("step %d: RowSums (%v) differ from a fresh Rows' (%v)", k, okGot, okWant)
		}
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

// checkCosineRows compares Row on the compiled Cosine rows of objs with
// Cosine{}.Sim, bit for bit, for every c, under both clamps a consumer
// applies: textsim.Clamp01, and the reductions' min(v, 1), which may
// leave an entry where Sim is 0 at or below 0 (or NaN) — an entry that
// can never raise an aggregation state that starts at +0.0.
func checkCosineRows(t *testing.T, objs []geodata.Object) {
	t.Helper()
	r := NewRows(Cosine{}, objs)
	row := make([]float64, len(objs))
	for c := range objs {
		r.Row(row, c, nil)
		for i, v := range row {
			want := Cosine{}.Sim(&objs[i], &objs[c])
			if got := textsim.Clamp01(v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Clamp01(Row): (%d,%d) = %v, Sim = %v", i, c, got, want)
			}
			if got := min(v, 1); math.Float64bits(got) != math.Float64bits(want) && !(want == 0 && !(got > 0)) {
				t.Fatalf("min(Row, 1): (%d,%d) = %v, Sim = %v", i, c, got, want)
			}
		}
	}
}

// The posting-list scatter behind Cosine's Row against the merge-join
// of Cosine.Sim, on the vectors that set them apart: a term every
// object holds (posting runs that span the whole row), a term only c
// holds, empty vectors, twins of identical text and a vector longer
// than 1, whose dot products above 1 clamp to 1, and negative weights,
// whose negative dot products clamp to 0.
func TestRowCosineMatchesSim(t *testing.T) {
	const n = rowsTestN
	const everywhere, unique = 77_000, 5
	rng := rand.New(rand.NewSource(23))
	objs := make([]geodata.Object, n)
	for i := range objs {
		tf := map[int]float64{everywhere: float64(1+rng.Intn(4)) / 2}
		for k := rng.Intn(5); k > 0; k-- {
			tf[10+rng.Intn(30)*100] = float64(1+rng.Intn(8)) / 4
		}
		objs[i] = geodata.Object{ID: i, Vec: textsim.NewVector(tf)}
	}
	for _, i := range []int{0, 100, 255, 256, n - 1} {
		objs[i].Vec = textsim.Vector{}
	}
	objs[300].Vec = textsim.NewVector(map[int]float64{unique: 2, everywhere: 1})
	objs[301].Vec = rawVector([]int32{10, everywhere}, []float32{3, 3})
	objs[40].Vec = rawVector([]int32{10, 110, everywhere}, []float32{-1, 0.5, -1})
	objs[263].Vec = rawVector([]int32{everywhere}, []float32{-1})
	for _, i := range []int{7, 420, 590} {
		objs[i].Vec = textsim.NewVector(map[int]float64{10: 1, 110: 1, everywhere: 2})
	}
	if r := NewRows(Cosine{}, objs); r.kind != rowsCosine {
		t.Fatalf("compiled to kind %d, want the Cosine kind", r.kind)
	}
	if dot := objs[40].Vec.Dot(objs[41].Vec); !(dot < 0) {
		t.Fatalf("objects 40 and 41 have dot product %v, want one the clamp to 0 must catch", dot)
	}
	if dot := objs[301].Vec.Dot(objs[302].Vec); !(dot > 1) {
		t.Fatalf("objects 301 and 302 have dot product %v, want one the clamp to 1 must catch", dot)
	}
	if dot := objs[7].Vec.Dot(objs[590].Vec); !(dot > 1) {
		t.Fatalf("twins 7 and 590 have dot product %v, want one the clamp to 1 must catch", dot)
	}
	checkCosineRows(t, objs)
	checkCosineRows(t, objs[:1])
	checkCosineRows(t, nil)
}

// Scatter ≡ merge only over strictly ascending term ids. One hand-built
// vector that breaks the order keeps the whole Rows on the generic
// kind, where Row is m.Sim by construction.
func TestUnsortedVectorsStayGeneric(t *testing.T) {
	for name, bad := range map[string]textsim.Vector{
		"duplicate": rawVector([]int32{2, 2, 3}, []float32{1, 1, 1}),
		"unsorted":  rawVector([]int32{3, 2}, []float32{1, 1}),
	} {
		objs := rowsTestObjects(276, 9)
		for i := range objs {
			objs[i].Vec = textsim.NewVector(map[int]float64{2: 1, 3 + i%3: 2})
		}
		objs[259].Vec = bad
		if r := NewRows(Cosine{}, objs); r.kind != rowsGeneric {
			t.Errorf("%s ids compiled to kind %d, want generic", name, r.kind)
		}
		checkCosineRows(t, objs)
	}
}

// rowSum is Σ_i w[i]·Sim(o_i, o_c) in the order internal/core reduces
// it: one row, clamped, accumulated in index order into one sum.
func rowSum(r *Rows, n int, w []float64, c int) float64 {
	row := make([]float64, n)
	r.Row(row, c, nil)
	var sum float64
	for k, v := range row {
		sum += w[k] * textsim.Clamp01(v)
	}
	return sum
}

// checkRowSums asserts the RowSums contract over objs for every index
// (twice, so cs may repeat): each bound dominates the index-ordered
// exact sum, and — when tight — exceeds it by no more than the float32
// rounding of unit weights allows: (n + maxnnz)·2⁻²³ relative, for the
// self-correction of ô_c·ô_c ≠ 1 and for dot products of identical
// texts above 1 that the row's clamp catches.
func checkRowSums(t *testing.T, objs []geodata.Object, tight bool) {
	t.Helper()
	n := len(objs)
	w := make([]float64, n)
	cs := make([]int, 0, 2*n)
	maxnnz := 0
	for i := range objs {
		w[i] = objs[i].Weight
		cs = append(cs, i)
		maxnnz = max(maxnnz, len(objs[i].Vec.Words))
	}
	slack := 1 + float64(n+maxnnz)*0x1p-23
	cs = append(cs, cs...)
	r := NewRows(Cosine{}, objs)
	dst := make([]float64, len(cs))
	if !r.RowSums(dst, w, cs) {
		t.Fatal("RowSums declined a non-negative Cosine instance")
	}
	for k, c := range cs {
		exact := rowSum(r, n, w, c)
		if dst[k] < exact {
			t.Fatalf("c = %d: bound %v below the exact row sum %v", c, dst[k], exact)
		}
		if tight && dst[k] > exact*slack {
			t.Fatalf("c = %d: bound %v more than (n+maxnnz)·2⁻²³ above the exact row sum %v", c, dst[k], exact)
		}
	}
}

func TestRowSumsDominateExactRows(t *testing.T) {
	// Duplicates and identical texts put dot products within float32
	// rounding of 1 on either side.
	const n = rowsTestN
	rng := rand.New(rand.NewSource(19))
	objs := make([]geodata.Object, n)
	for i := range objs {
		tf := make(map[int]float64)
		for k := rng.Intn(6); k > 0; k-- {
			tf[rng.Intn(40)*1000] = float64(1+rng.Intn(8)) / 4
		}
		objs[i] = geodata.Object{ID: i, Weight: rng.Float64(), Vec: textsim.NewVector(tf)}
		switch rng.Intn(8) {
		case 0:
			objs[i].Weight = 0
		case 1:
			objs[i].Vec = textsim.Vector{} // zero norm
		case 2:
			if i > 0 {
				objs[i].Vec = objs[rng.Intn(i)].Vec // duplicate
			}
		}
	}
	checkRowSums(t, objs, true)
	checkRowSums(t, objs[:1], true)
	checkRowSums(t, nil, true)

	// Vectors that are not unit-length move Sim off the dot product (the
	// clamp, the exact self-similarity); the bound must still hold.
	for i := range objs {
		scale := float32(0.5 + rng.Float64())
		words := make([]uint64, len(objs[i].Vec.Words)) // duplicates share the old ones
		for k, word := range objs[i].Vec.Words {
			words[k] = textsim.PackWord(int32(word>>32), scale*textsim.UnpackWeight(word))
		}
		objs[i].Vec = textsim.Vector{Words: words}
	}
	checkRowSums(t, objs, false)
}

func TestRowSumsDeclines(t *testing.T) {
	objs := rowsTestObjects(40, 5)
	hybrid, err := NewHybrid(0.4, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	ones := func() []float64 {
		w := make([]float64, len(objs))
		for i := range w {
			w[i] = 1
		}
		return w
	}
	cs := []int{0, 7, 39}
	dst := make([]float64, len(cs))
	for name, m := range map[string]Metric{
		"euclidean": EuclideanProximity{MaxDist: 0.7},
		"hybrid":    hybrid,
		"func":      Func(Cosine{}.Sim),
	} {
		if NewRows(m, objs).RowSums(dst, ones(), cs) {
			t.Errorf("%s: RowSums answered for a metric with no linear row sum", name)
		}
	}
	if !NewRows(Cosine{}, objs).RowSums(dst, ones(), cs) {
		t.Fatal("RowSums declined the baseline instance")
	}
	for name, bad := range map[string]float64{"negative": -0.5, "NaN": math.NaN()} {
		w := ones()
		w[3] = bad // not in cs: every ω enters the aggregate
		if NewRows(Cosine{}, objs).RowSums(dst, w, cs) {
			t.Errorf("RowSums answered with a %s ω", name)
		}
		mod := append([]geodata.Object(nil), objs...)
		mod[5].Vec = rawVector([]int32{1, 2}, []float32{float32(bad), 1})
		if NewRows(Cosine{}, mod).RowSums(dst, ones(), cs) {
			t.Errorf("RowSums answered with a %s term weight", name)
		}
	}
}

// fuzzObjects decodes the input as objects of up to three (term,
// weight) pairs plus an ω, so the fuzzer steers overlaps, duplicates,
// empty vectors and zero weights directly.
func fuzzObjects(data []byte) []geodata.Object {
	var objs []geodata.Object
	for ; len(data) >= 7; data = data[7:] {
		tf := make(map[int]float64)
		for k := 0; k < 6; k += 2 {
			tf[int(data[k]%32)] = float64(data[k+1]%16) / 4 // 0 drops the term
		}
		objs = append(objs, geodata.Object{ID: len(objs), Weight: float64(data[6]) / 16, Vec: textsim.NewVector(tf)})
	}
	return objs
}

func addFuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("the same seven bytes, the same seven bytes, and then some others"))
}

// checkLinear holds the envelope route to the compiled one: NewLinear
// over an ascending subset pos of objs answers, bound for bound and bit
// for bit, what RowSums answers over the compiled Subset(pos), and the
// two decline together. The subset is drawn from pick; each variant
// rewrites one object of it — or all of them, to move the ids into the
// hash table's far range — before both routes run.
func checkLinear(t *testing.T, objs []geodata.Object, pick *rand.Rand) {
	t.Helper()
	var pos []int
	for p := range objs {
		if pick.Intn(3) > 0 {
			pos = append(pos, p)
		}
	}
	target := 0
	if len(pos) > 0 {
		target = pos[pick.Intn(len(pos))]
	}
	remap := func(o *geodata.Object, f func(k int, id int32, w float32) (int32, float32)) {
		words := make([]uint64, len(o.Vec.Words))
		for k, word := range o.Vec.Words {
			id, w := f(k, int32(word>>32), textsim.UnpackWeight(word))
			words[k] = textsim.PackWord(id, w)
		}
		o.Vec = textsim.Vector{Words: words}
	}
	variants := map[string]func([]geodata.Object){
		"as is":      func([]geodata.Object) {},
		"negative ω": func(o []geodata.Object) { o[target].Weight = -0.25 },
		"NaN ω":      func(o []geodata.Object) { o[target].Weight = math.NaN() },
		"infinite ω": func(o []geodata.Object) { o[target].Weight = math.Inf(1) },
		"negative term": func(o []geodata.Object) {
			remap(&o[target], func(_ int, id int32, w float32) (int32, float32) { return id, -w })
		},
		"NaN term": func(o []geodata.Object) {
			remap(&o[target], func(_ int, id int32, w float32) (int32, float32) { return id, float32(math.NaN()) })
		},
		"repeated id": func(o []geodata.Object) {
			remap(&o[target], func(_ int, _ int32, w float32) (int32, float32) { return 7, w })
		},
		"last id 2³²−1": func(o []geodata.Object) {
			n := len(o[target].Vec.Words)
			remap(&o[target], func(k int, id int32, w float32) (int32, float32) {
				if k == n-1 {
					return -1, w
				}
				return id, w
			})
		},
		"spread ids": func(o []geodata.Object) {
			for i := range o {
				remap(&o[i], func(_ int, id int32, w float32) (int32, float32) { return id*0x01000193 + 5, w })
			}
		},
	}
	for name, rewrite := range variants {
		mod := slices.Clone(objs)
		if len(pos) > 0 {
			rewrite(mod)
		}
		sub := geodata.Collection{Objects: mod}
		staged := sub.Subset(pos)
		w := make([]float64, len(staged))
		all := make([]int, len(staged))
		for i := range staged {
			w[i], all[i] = staged[i].Weight, i
		}
		want := make([]float64, len(staged))
		rowsOK := NewRows(Cosine{}, staged).RowSums(want, w, all)

		lin := NewLinear(Cosine{}, mod, pos)
		linOK := lin != nil
		got := make([]float64, len(pos))
		for k, p := range pos {
			if !linOK {
				break
			}
			got[k], linOK = lin.Bound(&mod[p])
		}
		if linOK != rowsOK {
			t.Fatalf("%s: NewLinear answered %v, RowSums over the subset %v", name, linOK, rowsOK)
		}
		for k := range got {
			if rowsOK && math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: position %d: NewLinear bound %v, RowSums %v", name, pos[k], got[k], want[k])
			}
		}
	}
}

func FuzzRowSums(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		objs := fuzzObjects(data)
		checkRowSums(t, objs, true)
		h := fnv.New64a()
		h.Write(data)
		checkLinear(t, objs, rand.New(rand.NewSource(int64(h.Sum64()))))
	})
}

func FuzzRowCosine(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCosineRows(t, fuzzObjects(data))
	})
}

// TestRowAndBoundAllocateNothing pins the hot reads of this package:
// Row, on every kind it compiles a metric into, and a Linear aggregate's
// Bound write into the caller's storage and allocate nothing.
func TestRowAndBoundAllocateNothing(t *testing.T) {
	objs := rowsTestObjects(300, 4)
	hybrid, err := NewHybrid(0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(objs))
	for _, m := range []Metric{Cosine{}, EuclideanProximity{MaxDist: 0.3}, hybrid, Func(Cosine{}.Sim)} {
		rows := NewRows(m, objs)
		avg := testing.AllocsPerRun(20, func() {
			for c := 0; c < len(objs); c += 7 {
				rows.Row(dst, c, nil)
			}
		})
		if avg != 0 {
			t.Fatalf("%T: Row allocates %v per 43 rows, want 0", m, avg)
		}
	}

	pos := make([]int, len(objs))
	for i := range pos {
		pos[i] = i
	}
	lin := NewLinear(Cosine{}, objs, pos)
	if lin == nil {
		t.Fatal("NewLinear declined the test objects")
	}
	var sum float64
	avg := testing.AllocsPerRun(100, func() {
		for i := range objs {
			b, _ := lin.Bound(&objs[i])
			sum += b
		}
	})
	if avg != 0 {
		t.Fatalf("Bound allocates %v per %d objects, want 0", avg, len(objs))
	}
	if sum <= 0 {
		t.Fatal("the measured bounds summed to nothing")
	}
}
