package textsim

import (
	"math"
	"sort"
	"strings"
	"unicode"
)

// The map-based FromText that the one-pass FromText replaced, kept as
// the reference the tests hold it to bit for bit: lower-case the whole
// text, split it on every rune that is neither a letter nor a digit,
// count the terms in a map, then sort the ids and normalize. Its
// vocabulary is a map of its own, so a fault in Vocabulary's table
// shows as different ids rather than being shared by both sides.

// ReferenceVocab interns terms through a map, assigning ids in order of
// first appearance.
type ReferenceVocab struct {
	ids   map[string]int
	Terms []string // the terms in id order
}

// NewReferenceVocab returns an empty reference vocabulary.
func NewReferenceVocab() *ReferenceVocab {
	return &ReferenceVocab{ids: make(map[string]int)}
}

// ID returns term's id, assigning the next one on first sight.
func (r *ReferenceVocab) ID(term string) int {
	id, ok := r.ids[term]
	if !ok {
		id = len(r.Terms)
		r.ids[term] = id
		r.Terms = append(r.Terms, term)
	}
	return id
}

func referenceTokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

func referenceFromTerms(vocab *ReferenceVocab, terms []string) Vector {
	tf := make(map[int]float64)
	for _, t := range terms {
		tf[vocab.ID(t)]++
	}
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

// ReferenceFromText is the replaced FromText, exported to the package's
// external tests.
func ReferenceFromText(vocab *ReferenceVocab, s string) Vector {
	return referenceFromTerms(vocab, referenceTokenize(s))
}

// VocabTerms lists the vocabulary's terms in id order.
func VocabTerms(v *Vocabulary) []string {
	terms := make([]string, v.Len())
	for id := range terms {
		terms[id] = v.Term(id)
	}
	return terms
}
