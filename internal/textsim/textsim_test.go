package textsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// TestTokenize pins FromText's terms: each case's text gives the
// vector, and the vocabulary, of its expected term list.
func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"", nil},
		{"   ", nil},
		{"café au-lait №5", []string{"café", "au", "lait", "5"}},
		{"ONE one OnE", []string{"one", "one", "one"}},
		{"a1b2", []string{"a1b2"}},
		{"İSTANBUL", []string{"istanbul"}},
		{"STRAẞE straße", []string{"straße", "straße"}},
		{"ΟΔΟΣ", []string{"οδοσ"}},
		{"a\xffb\xc3", []string{"a", "b"}},
	}
	for _, c := range cases {
		vocab, ref := NewVocabulary(), NewReferenceVocab()
		got, want := FromText(vocab, c.in), referenceFromTerms(ref, c.want)
		if !slices.Equal(got.Words, want.Words) || !slices.Equal(VocabTerms(vocab), ref.Terms) {
			t.Errorf("FromText(%q): terms %q words %x, want terms %q words %x",
				c.in, VocabTerms(vocab), got.Words, ref.Terms, want.Words)
		}
	}
}

// internTerm interns term through FromText, the way every program
// interns, and returns its id; term must be one token of FromText.
func internTerm(t *testing.T, v *Vocabulary, term string) int {
	t.Helper()
	words := FromText(v, term).Words
	if len(words) != 1 {
		t.Fatalf("%q is %d terms, want one", term, len(words))
	}
	return int(int32(words[0] >> 32))
}

func TestVocabulary(t *testing.T) {
	v := NewVocabulary()
	a := internTerm(t, v, "alpha")
	b := internTerm(t, v, "beta")
	if a != 0 || b != 1 {
		t.Fatalf("ids %d, %d; want the dense 0, 1", a, b)
	}
	if got := internTerm(t, v, "alpha"); got != a {
		t.Errorf("re-intern changed id: %d vs %d", got, a)
	}
	if v.Len() != 2 {
		t.Errorf("Len = %d", v.Len())
	}
	if id, ok := v.Lookup("beta"); !ok || id != b {
		t.Errorf("Lookup(beta) = %d, %v", id, ok)
	}
	if _, ok := v.Lookup("gamma"); ok {
		t.Error("Lookup of unknown term should fail")
	}
	// Zero value usable.
	var zero Vocabulary
	if internTerm(t, &zero, "x") != 0 {
		t.Error("zero-value vocabulary broken")
	}
}

// TestVocabularyAgainstMap interns 100 000 distinct random terms of
// letters and digits (what FromText interns), each met twice, in random
// order, so the table runs every growth step from its first one, and
// holds the ids FromText assigns, Lookup, Term and Len to a map at
// every step — on a NewVocabulary and on a zero value.
func TestVocabularyAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 100000
	seen := make(map[string]bool, n)
	var terms []string
	for len(terms) < n {
		const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
		b := make([]byte, 1+rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		if s := string(b); !seen[s] {
			seen[s] = true
			terms = append(terms, s, s)
		}
	}
	rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	var zero Vocabulary
	for name, v := range map[string]*Vocabulary{"new": NewVocabulary(), "zero": &zero} {
		ref := NewReferenceVocab()
		if _, ok := v.Lookup(terms[0]); ok || v.Len() != 0 {
			t.Fatalf("%s: empty vocabulary knows %q or has Len %d", name, terms[0], v.Len())
		}
		for k, term := range terms {
			if _, ok := ref.ids[term]; !ok {
				if _, ok := v.Lookup(term); ok {
					t.Fatalf("%s: Lookup(%q) found a term never interned", name, term)
				}
			}
			if got, want := internTerm(t, v, term), ref.ID(term); got != want {
				t.Fatalf("%s: step %d: FromText(%q) interned id %d, want %d", name, k, term, got, want)
			}
			if v.Len() != len(ref.Terms) {
				t.Fatalf("%s: step %d: Len %d, want %d", name, k, v.Len(), len(ref.Terms))
			}
		}
		for id, term := range ref.Terms {
			if got, ok := v.Lookup(term); !ok || got != id {
				t.Fatalf("%s: Lookup(%q) = %d, %v, want %d", name, term, got, ok, id)
			}
			if got := v.Term(id); got != term {
				t.Fatalf("%s: Term(%d) = %q, want %q", name, id, got, term)
			}
		}
	}
}

// TestArenaFromText: vectors built from one Arena carry the words the
// reference builds, each capped at its length, so appending to one
// leaves the others alone — a vector longer than a chunk included.
func TestArenaFromText(t *testing.T) {
	var long strings.Builder
	for i := 0; i < arenaChunk+100; i++ {
		fmt.Fprintf(&long, "w%d ", i)
	}
	texts := []string{"a b a", "", long.String(), "b c", strings.Repeat("x y z ", 3000)}
	for i := 0; i < 5000; i++ {
		texts = append(texts, fmt.Sprintf("p%d q%d r%d", i%7, i%11, i))
	}
	var a Arena
	vocab, ref := NewVocabulary(), NewReferenceVocab()
	vecs := make([]Vector, len(texts))
	for i, s := range texts {
		vecs[i] = a.FromText(vocab, s)
		if want := ReferenceFromText(ref, s); !slices.Equal(vecs[i].Words, want.Words) {
			t.Fatalf("text %d: words %x, reference %x", i, vecs[i].Words, want.Words)
		}
		if cap(vecs[i].Words) != len(vecs[i].Words) {
			t.Fatalf("text %d: cap %d for %d words", i, cap(vecs[i].Words), len(vecs[i].Words))
		}
	}
	saved := make([][]uint64, len(vecs))
	for i, v := range vecs {
		saved[i] = slices.Clone(v.Words)
	}
	for i := range vecs {
		vecs[i].Words = append(vecs[i].Words, PackWord(1<<30, 1))
	}
	for i, v := range vecs {
		if !slices.Equal(v.Words[:len(saved[i])], saved[i]) {
			t.Fatalf("vector %d changed when its neighbours grew", i)
		}
	}
}

func TestNewVectorDropsNonPositive(t *testing.T) {
	v := NewVector(map[int]float64{1: 2, 2: 0, 3: -1, 4: 1})
	if len(v.Words) != 2 {
		t.Fatalf("words = %x", v.Words)
	}
	if v.Words[0]>>32 != 1 || v.Words[1]>>32 != 4 {
		t.Errorf("words = %x, want ids sorted [1 4]", v.Words)
	}
	// The kept weights 2 and 1 are stored divided by their norm √5.
	for k, want := range []float64{2 / math.Sqrt(5), 1 / math.Sqrt(5)} {
		if got := UnpackWeight(v.Words[k]); got != float32(want) {
			t.Errorf("weight %d = %v, want float32(%v)", k, got, want)
		}
	}
}

// checkUnit asserts the Vector contract: empty, or strictly ascending ids
// with strictly positive finite weights whose squares sum to 1 within
// nnz·2⁻²³ — float32 rounding moves each square by at most 2⁻²³
// relative.
func checkUnit(t *testing.T, name string, v Vector) {
	t.Helper()
	var sum float64
	for k, word := range v.Words {
		if k > 0 && word>>32 <= v.Words[k-1]>>32 {
			t.Fatalf("%s: ids not strictly ascending: %x", name, v.Words)
		}
		w := float64(UnpackWeight(word))
		if !(w > 0) || math.IsInf(w, 0) {
			t.Fatalf("%s: weight %d = %v, want positive and finite", name, k, w)
		}
		sum += w * w
	}
	if len(v.Words) > 0 && math.Abs(sum-1) > float64(len(v.Words))*0x1p-23 {
		t.Fatalf("%s: Σŵ² = %v, more than %d·2⁻²³ off 1", name, sum, len(v.Words))
	}
}

// Every constructor returns a unit vector or the empty one, and
// Reweight never turns a zero, negative or NaN factor into a NaN weight.
func TestVectorsAreUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vocab := NewVocabulary()
	words := []string{"a", "b", "c", "d", "e", "f", "g"}
	for i := 0; i < 300; i++ {
		tf := make(map[int]float64)
		var terms []string
		for k := rng.Intn(8); k > 0; k-- {
			tf[rng.Intn(50)] = []float64{-1, 0, 1e-30, 0.25, 1, 3, 1e30, math.NaN()}[rng.Intn(8)]
			terms = append(terms, words[rng.Intn(len(words))])
		}
		v := NewVector(tf)
		checkUnit(t, "NewVector", v)
		checkUnit(t, "FromText", FromText(vocab, strings.Join(terms, " ")))
		factors := make([]float64, 40)
		for id := range factors {
			factors[id] = []float64{0, -2, math.NaN(), 0.5, 1, 7}[rng.Intn(6)]
		}
		checkUnit(t, "Reweight", v.Reweight(factors))
	}
	for name, factors := range map[string][]float64{
		"zero":     {0, 0, 0},
		"negative": {-1, -1, -1},
		"NaN":      {math.NaN(), math.NaN(), math.NaN()},
	} {
		if r := NewVector(map[int]float64{0: 1, 2: 3}).Reweight(factors); len(r.Words) != 0 {
			t.Errorf("%s factors: Reweight = %x, want the empty vector", name, r.Words)
		}
	}
}

func TestCosineKnownValues(t *testing.T) {
	a := NewVector(map[int]float64{0: 1, 1: 1})
	b := NewVector(map[int]float64{0: 1, 1: 1})
	if got := a.Cosine(b); got > 1 || got < 1-0x1p-20 {
		t.Errorf("identical vectors: cosine = %v, want within 2⁻²⁰ of 1", got)
	}
	c := NewVector(map[int]float64{2: 1, 3: 1})
	if got := a.Cosine(c); got != 0 {
		t.Errorf("disjoint vectors: cosine = %v", got)
	}
	d := NewVector(map[int]float64{0: 1})
	want := 1 / math.Sqrt2
	if got := a.Cosine(d); math.Abs(got-want) > 1e-6 {
		t.Errorf("half overlap: cosine = %v, want %v", got, want)
	}
}

func TestCosineZeroVector(t *testing.T) {
	var zero Vector
	a := NewVector(map[int]float64{0: 1})
	if got := a.Cosine(zero); got != 0 {
		t.Errorf("cosine with zero = %v", got)
	}
	if got := zero.Cosine(zero); got != 0 {
		t.Errorf("zero-zero cosine = %v", got)
	}
	if len(zero.Words) != 0 || len(a.Words) == 0 {
		t.Error("the zero Vector has words, or a one-term vector has none")
	}
}

func TestCosineProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	randVec := func() Vector {
		tf := make(map[int]float64)
		for i, n := 0, 1+rng.Intn(10); i < n; i++ {
			tf[rng.Intn(30)] = rng.Float64()*3 + 0.01
		}
		return NewVector(tf)
	}
	for i := 0; i < 500; i++ {
		a, b := randVec(), randVec()
		sab, sba := a.Cosine(b), b.Cosine(a)
		if sab != sba {
			t.Fatalf("asymmetric: %v vs %v", sab, sba)
		}
		if sab < 0 || sab > 1 {
			t.Fatalf("out of range: %v", sab)
		}
		if self := a.Cosine(a); math.Abs(self-1) > 1e-6 {
			t.Fatalf("self-cosine = %v", self)
		}
	}
}

func TestDotAgainstDense(t *testing.T) {
	f := func(aw, bw [16]uint8) bool {
		ta := map[int]float64{}
		tb := map[int]float64{}
		var dense, na, nb float64
		for i := 0; i < 16; i++ {
			ta[i] = float64(aw[i])
			tb[i] = float64(bw[i])
			dense += float64(aw[i]) * float64(bw[i])
			na += float64(aw[i]) * float64(aw[i])
			nb += float64(bw[i]) * float64(bw[i])
		}
		if na > 0 && nb > 0 {
			dense /= math.Sqrt(na * nb) // the vectors are stored unit-length
		}
		got := NewVector(ta).Dot(NewVector(tb))
		return math.Abs(got-dense) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFromText(t *testing.T) {
	vocab := NewVocabulary()
	v := FromText(vocab, "coffee coffee shop")
	if vocab.Len() != 2 {
		t.Fatalf("vocab len = %d", vocab.Len())
	}
	coffeeID, _ := vocab.Lookup("coffee")
	// "coffee" should carry weight 2, normalized by the norm √5.
	found := false
	for _, word := range v.Words {
		if int(word>>32) == coffeeID {
			found = true
			if w := UnpackWeight(word); w != float32(2/math.Sqrt(5)) {
				t.Errorf("coffee weight = %v", w)
			}
		}
	}
	if !found {
		t.Fatal("coffee term missing")
	}
	w := FromText(vocab, "tea house")
	if got := v.Cosine(w); got != 0 {
		t.Errorf("disjoint texts cosine = %v", got)
	}
	u := FromText(vocab, "coffee house")
	if got := v.Cosine(u); got <= 0 || got >= 1 {
		t.Errorf("partial overlap cosine = %v, want in (0,1)", got)
	}
}

// TestFromTerms holds FromText over a shared vocabulary to the
// reference built from each text's term list: the same words, and ids
// assigned in the same order across texts.
func TestFromTerms(t *testing.T) {
	vocab, ref := NewVocabulary(), NewReferenceVocab()
	for _, terms := range [][]string{
		{"x", "y", "x"},
		nil,
		{"y", "z", "z", "z", "w"},
		{strings.Repeat("long", 40), "x"},
	} {
		got := FromText(vocab, strings.Join(terms, " "))
		want := referenceFromTerms(ref, terms)
		if !slices.Equal(got.Words, want.Words) {
			t.Errorf("terms %q: words %x, want %x", terms, got.Words, want.Words)
		}
		if len(terms) == 0 && len(got.Words) != 0 {
			t.Error("no terms should give the empty vector")
		}
	}
	if got, want := VocabTerms(vocab), ref.Terms; !slices.Equal(got, want) {
		t.Errorf("vocabulary %q, want %q", got, want)
	}
}

// FuzzTokenize checks what FromText interns: non-empty terms of
// letters and digits that lower-casing leaves as they are, and an
// empty vector exactly when there is no term.
func FuzzTokenize(f *testing.F) {
	f.Add("Hello, World!")
	f.Add("")
	f.Add("日本語 text ñ")
	f.Add("a1b2 c3-d4_e5")
	f.Fuzz(func(t *testing.T, s string) {
		vocab := NewVocabulary()
		v := FromText(vocab, s)
		for _, term := range VocabTerms(vocab) {
			if term == "" {
				t.Fatal("empty term")
			}
			for _, r := range term {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("term %q holds %q", term, r)
				}
			}
			if strings.ToLower(term) != term {
				t.Fatalf("term %q is not lower-case", term)
			}
		}
		if (len(v.Words) == 0) != (vocab.Len() == 0) {
			t.Fatalf("%d terms but words %x", vocab.Len(), v.Words)
		}
		if len(v.Words) != vocab.Len() {
			t.Fatalf("%d terms in a fresh vocabulary, %d words", vocab.Len(), len(v.Words))
		}
	})
}

// FuzzFromText holds FromText to the map-based reference over two texts
// interned into one vocabulary: the same words, bit for bit, and the
// same ids in the same order.
func FuzzFromText(f *testing.F) {
	f.Add("İstanbul İSTANBUL", "i̇stanbul")
	f.Add("Straße STRASSE ẞ", "ß")
	f.Add("ΟΔΟΣ ὁδός Σ σ ς", "ΣΊΣΥΦΟΣ")
	f.Add("\xff\xfeab\xc3(cd", "a\x80b\xed\xa0\x80c")
	f.Add("42 ٤٢ ४२ 3rd x1", "Ⅻ ½ ²")
	f.Add("", "")
	f.Add(strings.Repeat("w0 w1 w2 ", 40), strings.Repeat("ü", 50))
	f.Fuzz(func(t *testing.T, a, b string) {
		vocab, ref := NewVocabulary(), NewReferenceVocab()
		for _, s := range []string{a, b} {
			got, want := FromText(vocab, s), ReferenceFromText(ref, s)
			if !slices.Equal(got.Words, want.Words) {
				t.Fatalf("FromText(%q) = %x, reference %x", s, got.Words, want.Words)
			}
		}
		if got, want := VocabTerms(vocab), ref.Terms; !slices.Equal(got, want) {
			t.Fatalf("vocabulary %q, reference %q", got, want)
		}
	})
}

// TestCountsRebuildFromText: a text's Counts, kept and replayed through
// FromCounts, give FromText's words, and a vocabulary rebuilt term by
// term with Intern, in id order, gives every term its id again.
func TestCountsRebuildFromText(t *testing.T) {
	texts := []string{"b a b", "", "ΟΔΟΣ a c c c", strings.Repeat("w1 w2 ", 50) + "w3"}
	vocab := NewVocabulary()
	var stored [][]Count
	for _, s := range texts {
		stored = append(stored, Counts(nil, vocab, s))
	}
	rebuilt := NewVocabulary()
	for id := 0; id < vocab.Len(); id++ {
		if got, added := rebuilt.Intern([]byte(vocab.Term(id))); got != id || !added {
			t.Fatalf("Intern(%q) = %d, %v; want %d, true", vocab.Term(id), got, added, id)
		}
	}
	if got, added := rebuilt.Intern([]byte("a")); added || got != 1 {
		t.Fatalf("Intern of a known term = %d, %v; want 1, false", got, added)
	}
	check := NewVocabulary()
	var a Arena
	for i, s := range texts {
		want := FromText(check, s)
		if got := a.FromCounts(stored[i]); !slices.Equal(got.Words, want.Words) {
			t.Errorf("%q: FromCounts words %x, FromText %x", s, got.Words, want.Words)
		}
	}
	if want := []Count{{0, 2}, {1, 1}}; !slices.Equal(stored[0], want) {
		t.Errorf("Counts(%q) = %v, want %v", texts[0], stored[0], want)
	}
}
