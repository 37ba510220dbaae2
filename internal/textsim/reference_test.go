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
// count the terms in a map, then sort the ids and normalize.

func referenceTokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

func referenceFromTerms(vocab *Vocabulary, terms []string) Vector {
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
func ReferenceFromText(vocab *Vocabulary, s string) Vector {
	return referenceFromTerms(vocab, referenceTokenize(s))
}

// VocabTerms lists the vocabulary's terms in id order.
func VocabTerms(v *Vocabulary) []string {
	terms := make([]string, len(v.ids))
	for t, id := range v.ids {
		terms[id] = t
	}
	return terms
}
