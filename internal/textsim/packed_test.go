package textsim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
		vecs[i] = FromText(vocab, strings.Join(terms, " "))
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

// pack lays vecs out in p, reusing its storage.
func pack(p *Packed, vecs []Vector) {
	p.Reset()
	for i := range vecs {
		p.Append(vecs[i].Words)
	}
}

// TestPackedMatchesVector verifies the bitwise contract of the packed
// CSR arena across reuse: every run holds exactly its vector's words,
// so a dot product over the runs agrees exactly — not approximately —
// with the Vector's own, and a Reset leaves nothing of the previous
// vectors behind.
func TestPackedMatchesVector(t *testing.T) {
	var p Packed // one arena, Reset for every seed as sim.Rows reuses it
	for seed := int64(0); seed < 3; seed++ {
		vecs := randomVectors(60-20*int(seed), seed)
		pack(&p, vecs)
		if len(p.Off) != len(vecs)+1 {
			t.Fatalf("seed %d: %d offsets for %d vectors", seed, len(p.Off), len(vecs))
		}
		row := func(i int) []uint64 { return p.Words[p.Off[i]:p.Off[i+1]] }
		for i := range vecs {
			if !slices.Equal(row(i), vecs[i].Words) {
				t.Fatalf("seed %d: run %d = %x, want %x", seed, i, row(i), vecs[i].Words)
			}
			for j := range vecs {
				if got, want := DotWords(row(i), row(j)), vecs[i].Dot(vecs[j]); got != want {
					t.Fatalf("seed %d: Dot(%d,%d) = %v, want %v", seed, i, j, got, want)
				}
			}
		}
	}
}

// TestPackedNoAllocQueries pins that a reused arena repacks the same
// vectors without allocating, and that dot products over its runs, the
// Vector-level cosine and clamped dot, and weight unpacking are
// allocation-free.
func TestPackedNoAllocQueries(t *testing.T) {
	vecs := randomVectors(50, 9)
	var p Packed
	pack(&p, vecs)
	var sum float64
	avg := testing.AllocsPerRun(100, func() {
		pack(&p, vecs)
		for i := 0; i < 50; i++ {
			j := (i + 7) % 50
			run := p.Words[p.Off[i]:p.Off[i+1]]
			sum += DotWords(run, p.Words[p.Off[j]:p.Off[j+1]])
			sum += vecs[i].Cosine(vecs[j]) - Clamp01(vecs[i].Dot(vecs[j]))
			for _, word := range run {
				sum += float64(UnpackWeight(word))
			}
		}
	})
	if avg != 0 {
		t.Fatalf("repack and read sweep allocates %v per run, want 0", avg)
	}
	if sum <= 0 {
		t.Fatal("the measured reads summed to nothing")
	}
}
