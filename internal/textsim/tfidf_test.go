package textsim

import (
	"math"
	"testing"
)

func TestDocumentFrequencies(t *testing.T) {
	vocab := NewVocabulary()
	vecs := []Vector{
		FromText(vocab, "a b"),
		FromText(vocab, "a c"),
		FromText(vocab, "a a a"), // repeated term counts once per doc
	}
	df := DocumentFrequencies(vecs, vocab.Len())
	aID, _ := vocab.Lookup("a")
	bID, _ := vocab.Lookup("b")
	cID, _ := vocab.Lookup("c")
	if df[aID] != 3 || df[bID] != 1 || df[cID] != 1 {
		t.Errorf("df = %v", df)
	}
}

func TestIDFOrdering(t *testing.T) {
	idf := IDF([]int{0, 1, 50, 99}, 100)
	for i := 1; i < len(idf); i++ {
		if idf[i] >= idf[i-1] {
			t.Fatalf("idf not decreasing in df: %v", idf)
		}
	}
	for _, v := range idf {
		if v <= 0 {
			t.Fatalf("non-positive idf %v", v)
		}
	}
}

func TestReweight(t *testing.T) {
	// (1, 2)/√5 reweighted by (2, 0.5) is (2, 1)/√5, renormalized: the
	// norm is 1 up to float32 rounding, so the weights stay within it.
	v := NewVector(map[int]float64{0: 1, 1: 2})
	w := v.Reweight([]float64{2, 0.5})
	for k, want := range []float64{2 / math.Sqrt(5), 1 / math.Sqrt(5)} {
		if got := float64(UnpackWeight(w.Words[k])); math.Abs(got-want) > 2*0x1p-24 {
			t.Errorf("weight %d = %v, want %v", k, got, want)
		}
	}
	// Original untouched.
	if UnpackWeight(v.Words[0]) != float32(1/math.Sqrt(5)) {
		t.Error("Reweight mutated the receiver")
	}
	// Out-of-range ids keep weights: a lone term stays at 1.
	u := NewVector(map[int]float64{5: 3})
	ru := u.Reweight([]float64{2})
	if UnpackWeight(ru.Words[0]) != 1 {
		t.Errorf("out-of-range weight changed: %x", ru.Words)
	}
	// A term reweighted to zero is dropped, and the rest renormalized.
	z := v.Reweight([]float64{0, 1})
	if len(z.Words) != 1 || z.Words[0]>>32 != 1 || UnpackWeight(z.Words[0]) != 1 {
		t.Errorf("zeroed term kept: %x", z.Words)
	}
}

func TestTFIDFSharpensCommonTerms(t *testing.T) {
	// Two docs share only a ubiquitous term; two others share a rare
	// term. After IDF reweighting the rare-pair cosine must exceed the
	// common-pair cosine.
	vocab := NewVocabulary()
	var corpus []Vector
	// 50 docs all containing "the".
	for i := 0; i < 50; i++ {
		corpus = append(corpus, FromText(vocab, "the"))
	}
	a := FromText(vocab, "the apple")
	b := FromText(vocab, "the banana")
	c := FromText(vocab, "quartz crystal")
	d := FromText(vocab, "quartz mineral")
	corpus = append(corpus, a, b, c, d)

	df := DocumentFrequencies(corpus, vocab.Len())
	idf := IDF(df, len(corpus))
	ra, rb, rc, rd := a.Reweight(idf), b.Reweight(idf), c.Reweight(idf), d.Reweight(idf)

	commonBefore := a.Cosine(b)
	rareBefore := c.Cosine(d)
	commonAfter := ra.Cosine(rb)
	rareAfter := rc.Cosine(rd)
	if commonBefore != rareBefore {
		t.Fatalf("setup: raw cosines should tie (%v vs %v)", commonBefore, rareBefore)
	}
	if commonAfter >= rareAfter {
		t.Errorf("idf did not demote the common term: common %v, rare %v", commonAfter, rareAfter)
	}
}
