package textsim

import "math"

// DocumentFrequencies counts, for every term id in [0, vocabSize), the
// number of vectors containing it.
func DocumentFrequencies(vecs []Vector, vocabSize int) []int {
	df := make([]int, vocabSize)
	for _, v := range vecs {
		for _, word := range v.Words {
			if id := int(word >> 32); id < vocabSize {
				df[id]++
			}
		}
	}
	return df
}

// IDF converts document frequencies into smoothed inverse document
// frequencies: idf = ln(1 + n/(1+df)). Terms that appear everywhere get
// weights near ln(2)·(n/(n+1)) ≈ 0.69; rare terms approach ln(1+n).
func IDF(df []int, n int) []float64 {
	idf := make([]float64, len(df))
	for i, d := range df {
		idf[i] = math.Log(1 + float64(n)/float64(1+d))
	}
	return idf
}

// Reweight returns the unit vector of v's weights each multiplied by
// factors[id] (terms whose id is out of range keep their weight):
// renormalized, with every term whose weight is no longer positive
// dropped. v's words are already in ascending id order, so no sort or
// map is needed. Used to turn raw term-frequency vectors into TF-IDF
// vectors, which sharpens cosine similarity on corpora where a few
// terms dominate.
func (v Vector) Reweight(factors []float64) Vector {
	var buf [64]term
	terms := buf[:0]
	for _, word := range v.Words {
		id := int(word >> 32)
		w := float64(UnpackWeight(word))
		if id < len(factors) {
			w *= factors[id]
		}
		if w > 0 {
			terms = append(terms, term{int32(id), w})
		}
	}
	return unit(nil, terms)
}
