// Packed term vectors: the flat layout behind the cosine rows of
// sim.Rows. A slice of Vectors is an array-of-structs —
// every object carries two slice headers (IDs, Weights) pointing at its
// own small allocations, so a cosine inner loop chases four pointers per
// pair and streams four separate arrays. Packed flattens all vectors
// into one CSR arena of bit-packed (term id, weight) words plus one
// norm column, so the merge-join streams exactly two contiguous runs.
//
// The packing is lossless: the term id occupies the high 32 bits of
// each word and the weight's IEEE-754 float32 bit pattern the low 32,
// so unpacking returns the identical float32 the Vector held and every
// dot product and cosine computed from the packed layout is
// bitwise-equal to the Vector one. (A lossy b-bit quantization of the
// weights would bound the per-term error by Δ/2 with Δ the quantization
// step, giving |dot − dot_q| ≤ Δ·(‖a‖₁+‖b‖₁)/2; since weights are
// already float32, packing their exact bits costs nothing extra and
// keeps the error identically zero — see DESIGN.md §9.)
package textsim

import "math"

// Packed is a CSR arena of term vectors: vector i's terms are
// Words[Off[i]:Off[i+1]], each word carrying the term id in its high 32
// bits and the float32 weight bits in its low 32, sorted ascending by
// term id (the id order is preserved by packing, and comparing the high
// bits of two words compares their term ids). Norms[i] is the
// precomputed Euclidean norm, copied from Vector.Norm.
//
//geolint:hotpath
type Packed struct {
	Off   []int32
	Words []uint64
	Norms []float64
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

// Pack flattens vecs into the CSR arena layout. The term order within
// each vector is preserved, so merge-joins over packed rows visit the
// same (id, weight) pairs in the same order as Vector.Dot.
func Pack(vecs []Vector) Packed {
	total := 0
	for i := range vecs {
		total += len(vecs[i].IDs)
	}
	p := Packed{
		Off:   make([]int32, len(vecs)+1),
		Words: make([]uint64, 0, total),
		Norms: make([]float64, len(vecs)),
	}
	for i := range vecs {
		p.Off[i] = int32(len(p.Words))
		for k, id := range vecs[i].IDs {
			p.Words = append(p.Words, PackWord(id, vecs[i].Weights[k]))
		}
		p.Norms[i] = vecs[i].Norm
	}
	p.Off[len(vecs)] = int32(len(p.Words))
	return p
}

// Row returns vector i's packed words.
func (p *Packed) Row(i int) []uint64 {
	return p.Words[p.Off[i]:p.Off[i+1]]
}

// Dot returns the dot product of packed vectors i and j.
func (p *Packed) Dot(i, j int) float64 {
	return DotWords(p.Row(i), p.Row(j))
}

// DotWords returns the dot product of two packed term rows via the same
// ascending-id merge as Vector.Dot; the result is bitwise-equal because
// the operands and the accumulation order are identical.
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

// Cosine returns the cosine similarity of packed vectors i and j,
// bitwise-equal to Vector.Cosine on the source vectors.
func (p *Packed) Cosine(i, j int) float64 {
	ni, nj := p.Norms[i], p.Norms[j]
	if ni == 0 || nj == 0 {
		return 0
	}
	c := p.Dot(i, j) / (ni * nj)
	if c > 1 {
		return 1
	}
	if c < 0 {
		return 0
	}
	return c
}
