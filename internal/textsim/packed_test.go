package textsim

import (
	"fmt"
	"math/rand"
	"testing"
)

func randomVectors(n int, seed int64) []Vector {
	rng := rand.New(rand.NewSource(seed))
	vocab := NewVocabulary()
	words := make([]string, 40)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	vecs := make([]Vector, n)
	for i := range vecs {
		k := rng.Intn(6) // including empty vectors
		terms := make([]string, k)
		for j := range terms {
			terms[j] = words[rng.Intn(len(words))]
		}
		vecs[i] = FromTerms(vocab, terms)
	}
	return vecs
}

// TestPackWordRoundTrip pins the bit layout: the packed word losslessly
// preserves the float32 weight and the term id.
func TestPackWordRoundTrip(t *testing.T) {
	cases := []struct {
		id int32
		w  float32
	}{{0, 0}, {1, 1}, {7, 0.25}, {1 << 30, 3.5}, {42, 1e-38}}
	for _, c := range cases {
		word := PackWord(c.id, c.w)
		if got := int32(word >> 32); got != c.id {
			t.Errorf("PackWord(%d, %v): id = %d", c.id, c.w, got)
		}
		if got := UnpackWeight(word); got != c.w {
			t.Errorf("PackWord(%d, %v): weight = %v", c.id, c.w, got)
		}
	}
}

// TestPackedMatchesVector verifies the bitwise contract of the packed
// CSR arena: Dot and Cosine agree exactly — not approximately — with
// the Vector implementations, because the packed words preserve the
// float32 weights and the merge accumulates in the same id order.
func TestPackedMatchesVector(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		vecs := randomVectors(60, seed)
		p := Pack(vecs)
		for i := range vecs {
			if len(p.Row(i)) != len(vecs[i].Words) {
				t.Fatalf("seed %d: row %d has %d words for %d terms", seed, i, len(p.Row(i)), len(vecs[i].Words))
			}
			for j := range vecs {
				if got, want := p.Dot(i, j), vecs[i].Dot(vecs[j]); got != want {
					t.Fatalf("seed %d: Dot(%d,%d) = %v, want %v", seed, i, j, got, want)
				}
				if got, want := p.Cosine(i, j), vecs[i].Cosine(vecs[j]); got != want {
					t.Fatalf("seed %d: Cosine(%d,%d) = %v, want %v", seed, i, j, got, want)
				}
			}
		}
	}
}

// TestPackedNoAllocQueries pins that row queries and similarity
// evaluations on a packed arena are allocation-free.
func TestPackedNoAllocQueries(t *testing.T) {
	vecs := randomVectors(50, 9)
	p := Pack(vecs)
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 50; i++ {
			p.Cosine(i, (i+7)%50)
		}
	})
	if avg != 0 {
		t.Fatalf("packed cosine allocates %v per sweep, want 0", avg)
	}
}
