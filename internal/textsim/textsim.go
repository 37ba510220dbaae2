// Package textsim provides the textual-similarity substrate: a
// vocabulary that interns terms to dense ids, unit-length sparse term
// vectors built from text in one pass, and cosine similarity as their
// clamped dot product. The paper
// measures the similarity of two geo-tagged tweets or POIs by the cosine
// similarity of their keyword vectors (Section 7.1); this package makes
// that metric cheap enough to sit inside the greedy algorithm's inner
// loop.
package textsim

import (
	"math"
	"slices"
	"sort"
	"unicode"
	"unicode/utf8"
)

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

// intern is ID for a term spelled in bytes: a known term costs one map
// lookup and no allocation; only a new term copies its bytes.
func (v *Vocabulary) intern(term []byte) int32 {
	if id, ok := v.ids[string(term)]; ok {
		return int32(id)
	}
	return int32(v.ID(string(term)))
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

// term is one (id, raw weight) pair on its way into a Vector.
type term struct {
	id int32
	w  float64
}

// unit packs terms — positive weights, strictly ascending ids — into
// their unit Vector: every weight divided by the norm (its squares
// summed in id order) and rounded to float32, a weight that rounds to
// zero dropped. It is the one normalization of the package.
func unit(terms []term) Vector {
	var norm2 float64
	for _, t := range terms {
		norm2 += t.w * t.w
	}
	norm := math.Sqrt(norm2)
	v := Vector{Words: make([]uint64, 0, len(terms))}
	for _, t := range terms {
		if u := float32(t.w / norm); u > 0 {
			v.Words = append(v.Words, PackWord(t.id, u))
		}
	}
	return v
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
	terms := make([]term, len(ids))
	for k, id := range ids {
		terms[k] = term{int32(id), tf[id]}
	}
	return unit(terms)
}

// FromText returns the term-frequency vector of s, interning its terms
// into vocab in order of first appearance. A term is a maximal run of
// letters and digits after lower-casing: every rune is mapped by
// unicode.ToLower, as strings.ToLower maps it (invalid UTF-8 reads as
// U+FFFD, which separates), and any rune that is then neither a letter
// nor a digit ends the run.
//
// It is one pass over s with no per-text map: a term's bytes collect in
// a stack buffer and find their id without allocating, the ids collect
// in another, and sorting them counts each term's frequency.
func FromText(vocab *Vocabulary, s string) Vector {
	var tokBuf [64]byte
	var idBuf [64]int32
	tok, ids := tokBuf[:0], idBuf[:0]
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			i++
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if 'a' <= c && c <= 'z' || '0' <= c && c <= '9' {
				tok = append(tok, c)
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			i += size
			if r = unicode.ToLower(r); unicode.IsLetter(r) || unicode.IsDigit(r) {
				tok = utf8.AppendRune(tok, r)
				continue
			}
		}
		if len(tok) > 0 {
			ids = append(ids, vocab.intern(tok))
			tok = tok[:0]
		}
	}
	if len(tok) > 0 {
		ids = append(ids, vocab.intern(tok))
	}
	slices.Sort(ids)
	var termBuf [64]term
	terms := termBuf[:0]
	for k := 0; k < len(ids); {
		j := k + 1
		for j < len(ids) && ids[j] == ids[k] {
			j++
		}
		terms = append(terms, term{ids[k], float64(j - k)})
		k = j
	}
	return unit(terms)
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
