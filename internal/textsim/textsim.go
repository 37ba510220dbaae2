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
	"math/bits"
	"slices"
	"sort"
	"unicode"
	"unicode/utf8"
)

// Vocabulary interns term strings to dense integer ids, assigned in
// order of first appearance. Its terms' spellings sit back to back in
// one byte arena, and an open-addressed table of ids finds them by an
// FNV-1a hash of their bytes, which FromText folds in while it reads
// the text. The zero value is ready to use.
type Vocabulary struct {
	spell []byte  // every term's bytes, in id order
	ends  []int   // term id's spelling ends at ends[id] in spell
	table []int32 // id+1 per occupied slot, 0 per free one; a power of two long, at most half full
	shift uint    // 64 − log₂ len(table)
}

// A term's hash is 64-bit FNV-1a over its bytes: hashInit folded with
// each byte by hashByte.
const (
	hashInit  uint64 = 14695981039346656037
	hashPrime uint64 = 1099511628211
)

// tableMin is the table length a vocabulary's first term makes.
const tableMin = 64

func hashByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * hashPrime }

func hashOf[T string | []byte](term T) uint64 {
	h := hashInit
	for i := 0; i < len(term); i++ {
		h = hashByte(h, term[i])
	}
	return h
}

// home is the slot where hash h's probe sequence starts. FNV-1a mixes
// its top bits poorly on terms of a few bytes, so h is first folded by
// a Fibonacci multiply, whose top bits depend on all of h's.
func (v *Vocabulary) home(h uint64) int { return int((h * 0x9e3779b97f4a7c15) >> v.shift) }

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary { return &Vocabulary{} }

// Lookup returns the id for term without interning; ok is false when the
// term is unknown.
func (v *Vocabulary) Lookup(term string) (int, bool) {
	if len(v.table) == 0 {
		return 0, false
	}
	id := v.table[find(v, term, hashOf(term))] - 1
	return int(id), id >= 0
}

// Len reports the number of distinct terms seen.
func (v *Vocabulary) Len() int { return len(v.ends) }

// Term returns the spelling of term id, which must be in [0, Len()).
func (v *Vocabulary) Term(id int) string { return string(v.term(id)) }

// term is the spelling of id inside the arena.
func (v *Vocabulary) term(id int) []byte {
	start := 0
	if id > 0 {
		start = v.ends[id-1]
	}
	return v.spell[start:v.ends[id]]
}

// find returns the slot of term, whose hash is h: the slot holding its
// id, or the free slot that ends its probe sequence when it is unknown.
// The table must not be empty.
func find[T string | []byte](v *Vocabulary, term T, h uint64) int {
	mask := len(v.table) - 1
	for i := v.home(h); ; i = (i + 1) & mask {
		slot := v.table[i]
		if slot == 0 || string(v.term(int(slot-1))) == string(term) {
			return i
		}
	}
}

// intern is ID for a term spelled in a string or in bytes, whose hash
// is h: a known term costs one probe sequence and no allocation; a new
// one appends its bytes to the arena. The table grows first whenever
// one more term would fill more than half of it, so the probe always
// ends.
func intern[T string | []byte](v *Vocabulary, term T, h uint64) int32 {
	if 2*(len(v.ends)+1) > len(v.table) {
		v.grow()
	}
	i := find(v, term, h)
	if slot := v.table[i]; slot != 0 {
		return slot - 1
	}
	v.spell = append(v.spell, term...)
	v.ends = append(v.ends, len(v.spell))
	v.table[i] = int32(len(v.ends))
	return int32(len(v.ends) - 1)
}

// Intern returns term's id, giving it the next one when it is new;
// added reports whether it was. A snapshot reader rebuilds a stored
// vocabulary with it, one term at a time in id order.
func (v *Vocabulary) Intern(term []byte) (id int, added bool) {
	n := v.Len()
	id = int(intern(v, term, hashOf(term)))
	return id, id == n
}

// grow doubles the table (or makes its first) and places every known
// term again.
func (v *Vocabulary) grow() {
	n := max(2*len(v.table), tableMin)
	v.table = make([]int32, n)
	v.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for id := range v.ends {
		i := v.home(hashOf(v.term(id)))
		for v.table[i] != 0 {
			i = (i + 1) & mask
		}
		v.table[i] = int32(id + 1)
	}
}

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
// zero dropped. It is the one normalization of the package. The words
// come from a, or from an array of their own when a is nil.
func unit(a *Arena, terms []term) Vector {
	var norm2 float64
	for _, t := range terms {
		norm2 += t.w * t.w
	}
	norm := math.Sqrt(norm2)
	words := a.take(len(terms))
	for _, t := range terms {
		if u := float32(t.w / norm); u > 0 {
			words = append(words, PackWord(t.id, u))
		}
	}
	return Vector{Words: a.keep(words)}
}

// Arena hands out the Words of many vectors from shared chunks, so a
// bulk load allocates once per chunk rather than once per vector. A
// vector's words never straddle two chunks, and each is capped at its
// length, so appending to one cannot reach the next. A chunk lives as
// long as any vector in it. The zero value is ready to use.
type Arena struct {
	free []uint64 // the unused tail of the current chunk
}

// arenaChunk is the length of an arena chunk in words (64 KiB); a
// vector longer than that gets a chunk of its own length.
const arenaChunk = 1 << 13

// take returns an empty slice with room for n words: from a's current
// chunk, a new chunk when that lacks the room, or an array of its own
// when a is nil. The words appended to it, at most n, go to one vector
// through keep.
func (a *Arena) take(n int) []uint64 {
	if a == nil {
		return make([]uint64, 0, n)
	}
	if len(a.free) < n {
		a.free = make([]uint64, max(n, arenaChunk))
	}
	return a.free[:0:n]
}

// keep takes words, filled from the last take, out of a's chunk and
// returns them capped at their length: a vector that kept fewer words
// than it took cannot grow into the next one.
func (a *Arena) keep(words []uint64) []uint64 {
	if a == nil {
		return words
	}
	a.free = a.free[len(words):]
	return words[:len(words):len(words)]
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
	return unit(nil, terms)
}

// FromText returns the term-frequency vector of s, interning its terms
// into vocab in order of first appearance: Counts, then FromCounts.
func FromText(vocab *Vocabulary, s string) Vector {
	return (*Arena)(nil).FromText(vocab, s)
}

// FromText is the package's FromText with the vector's words taken
// from a.
func (a *Arena) FromText(vocab *Vocabulary, s string) Vector {
	var buf [64]Count
	return a.FromCounts(Counts(buf[:0], vocab, s))
}

// Count is one distinct term of a text: its vocabulary id and the
// number of times the text holds it.
type Count struct {
	ID int32
	N  int32
}

// Counts appends to dst the distinct terms of s, ascending by id, each
// with its count, interning new terms into vocab in order of first
// appearance. A term is a maximal run of letters and digits after
// lower-casing: every rune is mapped by unicode.ToLower, as
// strings.ToLower maps it (invalid UTF-8 reads as U+FFFD, which
// separates), and any rune that is then neither a letter nor a digit
// ends the run.
//
// It is one pass over s with no per-text map: a term's bytes collect in
// a stack buffer while its hash folds them in, it finds its id in the
// vocabulary's table without allocating, the ids collect in another
// buffer, and sorting them counts each term.
func Counts(dst []Count, vocab *Vocabulary, s string) []Count {
	var tokBuf [64]byte
	var idBuf [64]int32
	tok, ids, h := tokBuf[:0], idBuf[:0], hashInit
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			i++
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if 'a' <= c && c <= 'z' || '0' <= c && c <= '9' {
				tok, h = append(tok, c), hashByte(h, c)
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			i += size
			if r = unicode.ToLower(r); unicode.IsLetter(r) || unicode.IsDigit(r) {
				n := len(tok)
				tok = utf8.AppendRune(tok, r)
				for _, c := range tok[n:] {
					h = hashByte(h, c)
				}
				continue
			}
		}
		if len(tok) > 0 {
			ids = append(ids, intern(vocab, tok, h))
			tok, h = tok[:0], hashInit
		}
	}
	if len(tok) > 0 {
		ids = append(ids, intern(vocab, tok, h))
	}
	slices.Sort(ids)
	for k := 0; k < len(ids); {
		j := k + 1
		for j < len(ids) && ids[j] == ids[k] {
			j++
		}
		dst = append(dst, Count{ids[k], int32(j - k)})
		k = j
	}
	return dst
}

// FromCounts returns the unit vector of a text's term counts — ids
// strictly ascending, every count at least 1, as Counts gives them —
// with its words taken from a. It is the tail of FromText, so a vector
// rebuilt from stored counts carries FromText's bits.
func (a *Arena) FromCounts(counts []Count) Vector {
	var buf [64]term
	terms := buf[:0]
	for _, c := range counts {
		terms = append(terms, term{c.ID, float64(c.N)})
	}
	return unit(a, terms)
}

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
