// Package textsim provides the textual-similarity substrate: a
// tokenizer, a vocabulary that interns terms to dense ids, unit-length
// sparse term vectors, and cosine similarity as their clamped dot
// product. The paper
// measures the similarity of two geo-tagged tweets or POIs by the cosine
// similarity of their keyword vectors (Section 7.1); this package makes
// that metric cheap enough to sit inside the greedy algorithm's inner
// loop.
package textsim

import (
	"math"
	"sort"
	"strings"
	"unicode"
)

// Tokenize lower-cases s and splits it into maximal runs of letters and
// digits. It is deliberately simple: the algorithms only need a stable
// bag-of-words representation.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// Vocabulary interns term strings to dense integer ids. The zero value
// is ready to use.
type Vocabulary struct {
	ids map[string]int
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{ids: make(map[string]int)}
}

// ID returns the id for term, assigning the next free id on first sight.
func (v *Vocabulary) ID(term string) int {
	if v.ids == nil {
		v.ids = make(map[string]int)
	}
	if id, ok := v.ids[term]; ok {
		return id
	}
	id := len(v.ids)
	v.ids[term] = id
	return id
}

// Lookup returns the id for term without interning; ok is false when the
// term is unknown.
func (v *Vocabulary) Lookup(term string) (int, bool) {
	id, ok := v.ids[term]
	return id, ok
}

// Len reports the number of distinct terms seen.
func (v *Vocabulary) Len() int { return len(v.ids) }

// Vector is a unit-length sparse term vector in the packed layout every
// similarity loop reads (packed.go): one word per term, the term id in
// the high 32 bits and the float32 bits of the normalized weight
// ŵ = w/‖w‖ in the low 32, sorted strictly ascending by term id. A
// Vector is unit-length (Σŵ² = 1 up to float32 rounding) or empty, so
// the cosine of two vectors is their dot product. Build one with
// NewVector or FromText; the zero Vector is the empty vector.
type Vector struct {
	Words []uint64
}

// NewVector builds the unit vector of a term-id -> weight map. Zero,
// negative and NaN weights are dropped (cosine over non-negative term
// frequencies is the intended use, keeping similarities in [0, 1]); a
// map with no positive weight gives the empty vector.
func NewVector(tf map[int]float64) Vector {
	ids := make([]int, 0, len(tf))
	for id, w := range tf {
		if w > 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var norm2 float64
	for _, id := range ids {
		norm2 += tf[id] * tf[id]
	}
	norm := math.Sqrt(norm2)
	v := Vector{Words: make([]uint64, 0, len(ids))}
	for _, id := range ids {
		if u := float32(tf[id] / norm); u > 0 {
			v.Words = append(v.Words, PackWord(int32(id), u))
		}
	}
	return v
}

// FromText tokenizes s, interns the tokens into vocab and returns the
// term-frequency vector.
func FromText(vocab *Vocabulary, s string) Vector {
	tf := make(map[int]float64)
	for _, tok := range Tokenize(s) {
		tf[vocab.ID(tok)]++
	}
	return NewVector(tf)
}

// FromTerms interns the given pre-tokenized terms and returns the
// term-frequency vector.
func FromTerms(vocab *Vocabulary, terms []string) Vector {
	tf := make(map[int]float64)
	for _, term := range terms {
		tf[vocab.ID(term)]++
	}
	return NewVector(tf)
}

// IsZero reports whether the vector has no terms.
func (a Vector) IsZero() bool { return len(a.Words) == 0 }

// Dot returns the dot product of a and b via a sorted merge.
//
//geolint:hotpath
func (a Vector) Dot(b Vector) float64 { return DotWords(a.Words, b.Words) }

// Cosine returns the cosine similarity of a and b in [0, 1]: their dot
// product, clamped. The cosine of anything with the empty vector is 0.
//
//geolint:hotpath
func (a Vector) Cosine(b Vector) float64 { return Clamp01(a.Dot(b)) }

// Clamp01 turns the dot product of two unit vectors into the cosine
// every layout reports: the dot clamped against float32 rounding (and
// hand-built vectors) beyond [0, 1]. A NaN stays NaN.
//
//geolint:hotpath
func Clamp01(dot float64) float64 {
	if dot > 1 {
		return 1
	}
	if dot < 0 {
		return 0
	}
	return dot
}
