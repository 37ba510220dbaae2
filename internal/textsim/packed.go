// The packed term layout. A Vector holds one word per term — the term
// id in the high 32 bits, the normalized weight's IEEE-754 float32 bit
// pattern in the low 32 — sorted ascending by term id, so comparing the
// high bits of two words compares their term ids and one merge-join
// (DotWords) is the only dot-product loop of the package. Packed
// concatenates the words of many vectors into one CSR arena: the flat
// layout behind the cosine rows of sim.Rows, which streams contiguous
// runs instead of chasing one slice header per object.
//
// A weight is normalized once, when its vector is built, and rounded to
// float32 there; from then on its bits are stored exactly, so every dot
// product and cosine is the same float64 whichever container the words
// sit in, and no norm travels with them. (The one rounding moves a
// cosine by about 2⁻²³ relative, and two distinct vectors of identical
// text may dot to within 2⁻²⁰ of 1 rather than exactly 1. A lossy b-bit
// quantization of the weights would bound the per-term error by Δ/2
// with Δ the quantization step, giving |dot − dot_q| ≤ Δ·(‖a‖₁+‖b‖₁)/2;
// float32 bits cost nothing extra — see DESIGN.md §9.)
package textsim

import "math"

// Packed is a CSR arena of term vectors: vector i's words are
// Words[Off[i]:Off[i+1]], in the Vector's own order. It is only a
// layout, filled by Reset and Append: sim.Rows reads the runs straight
// out of Words and Off, and its posting scatter adds the products
// DotWords adds.
//
//geolint:hotpath
type Packed struct {
	Off   []int32
	Words []uint64
}

// PackWord packs one (term id, weight) pair into a CSR word.
func PackWord(id int32, w float32) uint64 {
	return uint64(uint32(id))<<32 | uint64(math.Float32bits(w))
}

// UnpackWeight extracts the exact float32 weight from a CSR word.
//
//geolint:hotpath
func UnpackWeight(word uint64) float32 {
	return math.Float32frombits(uint32(word))
}

// Reset empties p, keeping its storage for the vectors Appended next.
//
//geolint:coldpath
func (p *Packed) Reset() {
	p.Off, p.Words = append(p.Off[:0], 0), p.Words[:0]
}

// Append adds words as p's next vector.
//
//geolint:coldpath
func (p *Packed) Append(words []uint64) {
	p.Words = append(p.Words, words...)
	p.Off = append(p.Off, int32(len(p.Words)))
}

// DotWords returns the dot product of two term rows via an
// ascending-id merge: the products of the shared terms, float32 weights
// widened to float64, summed from +0.0 in ascending term order.
//
//geolint:hotpath
func DotWords(a, b []uint64) float64 {
	var dot float64
	ai, bi := 0, 0
	for ai < len(a) && bi < len(b) {
		ka, kb := a[ai]>>32, b[bi]>>32
		switch {
		case ka == kb:
			dot += float64(UnpackWeight(a[ai])) * float64(UnpackWeight(b[bi]))
			ai++
			bi++
		case ka < kb:
			ai++
		default:
			bi++
		}
	}
	return dot
}
