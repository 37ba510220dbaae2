package sim

import (
	"math"

	"geosel/internal/geodata"
	"geosel/internal/textsim"
)

type rowsKind uint8

const (
	// rowsGeneric calls m.Sim per pair: every metric but Cosine, and
	// Cosine over vectors whose term ids are not strictly ascending.
	rowsGeneric rowsKind = iota
	rowsCosine
)

// Rows evaluates a metric the one way the selection algorithms consume
// it: one object c against every object. It is compiled once per
// (metric, object slice) — by NewRows, or in place by Reset — and
// writes the row Sim(&objs[i], &objs[c]) into a caller-owned buffer of
// len(objs) float64s. Cosine, the one metric the serving stack runs,
// has a specialised kind that reads one packed CSR term arena and its
// inverted index; every other metric is called per pair, which gives
// the same bits by construction.
// Every entry is bitwise the value m.Sim returns after the caller's
// clamp to [0, 1] (see Row), which is the identity on a metric that
// keeps the Metric contract.
//
// Rows is deliberately one concrete struct with a kind switch, called
// statically; the switch runs once per row, not once per pair.
//
// A Rows is for one goroutine at a time.
type Rows struct {
	kind rowsKind

	// Generic kind: the metric itself over the source objects.
	m    Metric
	objs []geodata.Object

	// Cosine: the packed term arena; termOf, parallel to vecs.Words,
	// renames each word's term to a dense region-local id; and the
	// inverted index over those ids, term t's postings being entries
	// postOff[t]:postOff[t+1] of two columns — postObj, the index of each
	// object holding t, ascending, and postW, t's weight in that object's
	// vector, widened from float32 once.
	vecs    textsim.Packed
	termOf  []int32
	postOff []int32
	postObj []int32
	postW   []float64
	// Compile-time scratch of the Cosine kind, kept for the next Reset:
	// the term-localising table (keys, local), the document frequencies
	// (count) and RowSums' aggregate (lin).
	keys  []uint64
	local []int32
	count []int32
	lin   Linear
}

// NewRows compiles m over objs. Index equality on objs stands in for
// the pointer identity m.Sim sees, which preserves Cosine's
// self-similarity special case.
func NewRows(m Metric, objs []geodata.Object) *Rows {
	r := new(Rows)
	r.Reset(m, objs)
	return r
}

// Reset recompiles r for m over objs in place, as NewRows compiles a
// new one, keeping every column's storage: a Rows reused across runs
// allocates only where a run outgrows all earlier ones. Reset(nil, nil)
// drops the references a generic Rows holds to its metric and objects.
func (r *Rows) Reset(m Metric, objs []geodata.Object) {
	r.kind, r.m, r.objs = rowsGeneric, nil, nil
	if _, ok := m.(Cosine); ok && r.resetCosine(objs) {
		r.kind = rowsCosine
		return
	}
	r.m, r.objs = m, objs
}

// resize returns s with length n, reallocated only when its capacity is
// short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resetCosine packs the term vectors of objs and inverts them, in
// O(Σ nnz). It reports false when some vector's term ids are not
// strictly ascending — NewVector's guarantee, and what makes the
// merge-join of Cosine.Sim and the posting-list scatter of Row sum the
// same products in the same order; such objects keep the generic kind.
func (r *Rows) resetCosine(objs []geodata.Object) bool {
	p := &r.vecs
	p.Reset()
	for i := range objs {
		p.Append(objs[i].Vec.Words)
	}
	words := p.Words

	// Localise the terms through an open-addressed table at load ≤ 1/2,
	// so every size below follows the region's terms, not the
	// vocabulary's. count[t] is term t's document frequency.
	shift := uint(63)
	for 1<<(64-shift) < 2*len(words) {
		shift--
	}
	keys := resize(r.keys, 1<<(64-shift))
	clear(keys)
	local := resize(r.local, len(keys))
	count := r.count[:0]
	r.keys, r.local = keys, local
	r.termOf = resize(r.termOf, len(words))
	for i := range objs {
		lo, hi := p.Off[i], p.Off[i+1]
		for k := lo; k < hi; k++ {
			key := words[k]>>32 + 1 // 0 marks an empty slot
			if k > lo && key <= words[k-1]>>32+1 {
				return false
			}
			h := int(key * 0x9E3779B97F4A7C15 >> shift)
			for keys[h] != key && keys[h] != 0 {
				h = (h + 1) & (len(keys) - 1)
			}
			if keys[h] == 0 {
				keys[h], local[h] = key, int32(len(count))
				count = append(count, 0)
			}
			r.termOf[k] = local[h]
			count[local[h]]++
		}
	}
	r.count = count

	// Counting sort by term. Objects are visited in index order, so each
	// posting run comes out ascending.
	r.postOff = resize(r.postOff, len(count)+1)
	r.postOff[0] = 0
	for t, c := range count {
		r.postOff[t+1] = r.postOff[t] + c
	}
	r.postObj = resize(r.postObj, len(words))
	r.postW = resize(r.postW, len(words))
	next := count // reused as each run's write cursor
	copy(next, r.postOff)
	for i := range objs {
		for k := p.Off[i]; k < p.Off[i+1]; k++ {
			t := r.termOf[k]
			r.postObj[next[t]] = int32(i)
			r.postW[next[t]] = float64(textsim.UnpackWeight(words[k]))
			next[t]++
		}
	}
	return true
}

// Row writes c's row into dst, whose length must be the number of
// compiled objects: dst[i] is Sim(o_i, o_c) once clamped with
// textsim.Clamp01 — or, where the consumer keeps a running maximum from
// +0.0, with min(dst[i], 1): a negative or NaN entry never beats it
// either way. Only the Cosine kind needs the clamp: it writes each dot
// as summed (exactly 1 at c), the generic kind the metric's own value.
//
// done, when not nil, cancels the row: the generic kind, the one whose
// pairs may be slow, polls it every 256 pairs and returns early, with
// dst garbage, once it is closed. A caller that passes it must probe it
// again before trusting dst.
//
//geolint:hotpath
func (r *Rows) Row(dst []float64, c int, done <-chan struct{}) {
	if r.kind == rowsCosine {
		r.rowCosine(dst, c)
		return
	}
	oc := &r.objs[c]
	for k := range r.objs {
		if k%256 == 0 && done != nil {
			select {
			case <-done:
				return
			default:
			}
		}
		dst[k] = r.m.Sim(&r.objs[k], oc)
	}
}

// RowSums writes to dst[k], for each c = cs[k], an upper bound on the
// weighted row sum Σ_i w[i]·Sim(o_i, o_c) over every compiled object —
// o_c's initial marginal gain — in O(Σ nnz) instead of one Row per c.
// It reports false, with dst unspecified, when the metric has no such
// shortcut; the caller then sums rows as before.
//
// Only Cosine has one: its row sum is linear. RowSums builds the Linear
// aggregate of the compiled objects — its coordinates indexed by the
// region-local term ids, so it hashes nothing — and reads it once per c,
// under Linear's rules.
func (r *Rows) RowSums(dst, w []float64, cs []int) bool {
	if r.kind != rowsCosine {
		return false
	}
	p := &r.vecs
	a := &r.lin
	*a = Linear{acc: resize(a.acc, len(r.postOff)-1)}
	clear(a.acc)
	for i := range len(p.Off) - 1 {
		lo, hi := p.Off[i], p.Off[i+1]
		if !a.add(w[i], p.Words[lo:hi], r.termOf[lo:hi]) {
			return false
		}
	}
	for k, c := range cs {
		lo, hi := p.Off[c], p.Off[c+1]
		b, ok := a.bound(w[c], p.Words[lo:hi], r.termOf[lo:hi])
		if !ok {
			return false
		}
		dst[k] = b
	}
	return true
}

// Linear is Cosine's linear row sum over a set R of objects (DESIGN.md
// §5d): the aggregate A = Σ_{i∈R} ω_i·ô_i of their stored unit vectors
// ô, with |R| = n and R's longest vector's length maxnnz. From it Bound
// gives, for any c in R, an upper bound on the weighted row sum
// Σ_{i∈R} ω_i·Sim(o_i, o_c) in O(nnz(c)): ô_c·A, corrected three ways so
// that it stays above what internal/core's reductions make of Row: one
// accumulator, in index order.
//
//   - Sim(o_c, o_c) is exactly 1 whatever float32 rounding makes of
//     ô_c·ô_c, so the shortfall ω_c·max(0, 1 − ô_c·ô_c) is added back (an
//     empty c gets ω_c alone).
//   - A dot dominates the [0, 1] clamp of a row only if it is non-negative, so
//     a negative or NaN term weight or ω declines, and so do term ids
//     that are not strictly ascending (Row would not sum that vector's
//     products in merge order).
//   - Either summation order is within n + maxnnz + 8 roundings of the
//     real sum — a sequential sum of the row's n terms, as core makes
//     it, takes n − 1 of them — so the result is inflated by
//     1 + 4(n + maxnnz + 8)·2⁻⁵³.
//
// Each coordinate of A adds its products in the order the objects were
// added and each bound dots c's terms in c's order, so the same objects
// in the same order give the same bits by either route: Rows.RowSums
// over a compiled slice, or NewLinear over positions of a collection.
// A bound for a c outside R is not a bound: it lacks c's self term.
type Linear struct {
	// acc holds A's coordinates, one per slot. RowSums names a word's
	// slot by its region-local term id; NewLinear's slots come from keys,
	// an open-addressed table of term id + 1 at load at most 3/4, with
	// one extra acc entry at the end for the one id (2³² − 1) that has no
	// id + 1.
	acc       []float64
	keys      []uint32
	shift     uint
	terms     int
	n, maxnnz int
}

// NewLinear aggregates the objects at positions pos of objs, in pos
// order, in one pass over their vectors. Its size follows their
// distinct terms, not the vocabulary's. It returns nil when m is not
// Cosine or a decline rule applies.
func NewLinear(m Metric, objs []geodata.Object, pos []int) *Linear {
	if _, ok := m.(Cosine); !ok {
		return nil
	}
	shift := uint(31)
	for 3<<(32-shift) < 4*len(pos) {
		shift--
	}
	a := &Linear{keys: make([]uint32, 1<<(32-shift)), shift: shift}
	a.acc = make([]float64, len(a.keys)+1)
	for _, p := range pos {
		if o := &objs[p]; !a.add(o.Weight, o.Vec.Words, nil) {
			return nil
		}
	}
	return a
}

// add folds w·ô into A, ô being the vector stored as words; slots, when
// not nil, names each word's slot. It reports false, leaving A
// unusable, on a decline rule.
func (a *Linear) add(w float64, words []uint64, slots []int32) bool {
	if !(w >= 0) {
		return false
	}
	a.n++
	a.maxnnz = max(a.maxnnz, len(words))
	acc := a.acc
	for k, word := range words {
		x := float64(textsim.UnpackWeight(word))
		if !(x >= 0) || k > 0 && word>>32 <= words[k-1]>>32 {
			return false
		}
		if slots != nil {
			acc[slots[k]] += w * x
		} else {
			s := a.insert(uint32(word >> 32))
			acc = a.acc // insert may have grown the table
			acc[s] += w * x
		}
	}
	return true
}

// insert returns term id's slot, claiming one — and growing the table
// first when it is three quarters full — if the term is new.
func (a *Linear) insert(id uint32) int {
	if id == math.MaxUint32 {
		return len(a.keys)
	}
	key := id + 1
	for {
		h := a.home(key)
		for ; a.keys[h] != 0; h = (h + 1) & (len(a.keys) - 1) {
			if a.keys[h] == key {
				return h
			}
		}
		if 4*(a.terms+1) <= 3*len(a.keys) {
			a.keys[h] = key
			a.terms++
			return h
		}
		keys, acc := a.keys, a.acc
		a.shift--
		a.keys = make([]uint32, 2*len(keys))
		a.acc = make([]float64, len(a.keys)+1)
		a.acc[len(a.keys)] = acc[len(keys)]
		a.terms = 0
		for h, key := range keys {
			if key != 0 {
				a.acc[a.insert(key-1)] = acc[h]
			}
		}
	}
}

func (a *Linear) home(key uint32) int {
	return int(key * 0x9E3779B1 >> a.shift)
}

// coord returns A's coordinate for term id, 0 when no object of R holds
// it.
func (a *Linear) coord(id uint32) float64 {
	if id == math.MaxUint32 {
		return a.acc[len(a.keys)]
	}
	key := id + 1
	for h := a.home(key); a.keys[h] != 0; h = (h + 1) & (len(a.keys) - 1) {
		if a.keys[h] == key {
			return a.acc[h]
		}
	}
	return 0
}

// Bound returns the upper bound on Σ_{i∈R} ω_i·Sim(o_i, c) for an
// object c of R; ok is false when it is NaN (an overflowed product),
// which declines c.
func (a *Linear) Bound(c *geodata.Object) (b float64, ok bool) {
	return a.bound(c.Weight, c.Vec.Words, nil)
}

// bound is Bound for the vector stored as words, weighted wc; slots is
// as for add.
//
//geolint:hotpath
func (a *Linear) bound(wc float64, words []uint64, slots []int32) (float64, bool) {
	var dot, self float64
	if slots != nil {
		acc := a.acc
		for k, word := range words {
			x := float64(textsim.UnpackWeight(word))
			dot += x * acc[slots[k]]
			self += x * x
		}
	} else {
		for _, word := range words {
			x := float64(textsim.UnpackWeight(word))
			dot += x * a.coord(uint32(word>>32))
			self += x * x
		}
	}
	b := (dot + wc*max(0, 1-self)) * (1 + 4*float64(a.n+a.maxnnz+8)*0x1p-53)
	return b, b >= 0
}

// rowCosine is Row for the Cosine kind. Instead of merge-joining c's
// vector with each other one, it scatters c's terms over their whole
// posting runs: dst[i] accumulates ô_i·ô_c for every term i shares with
// c. Terms are walked in c's ascending id order and every entry starts
// at +0.0, so each entry adds the products DotWords(row_i, row_c) adds,
// in its order — the same float64 Cosine.Sim clamps (the vectors are
// unit-length, so the clamped dot is the cosine).
//
//geolint:hotpath
func (r *Rows) rowCosine(dst []float64, c int) {
	clear(dst)
	words, termOf, postObj, postW := r.vecs.Words, r.termOf, r.postObj, r.postW
	for k := r.vecs.Off[c]; k < r.vecs.Off[c+1]; k++ {
		wc := float64(textsim.UnpackWeight(words[k]))
		t := termOf[k]
		lo, hi := r.postOff[t], r.postOff[t+1]
		ws := postW[lo:hi]
		for j, i := range postObj[lo:hi] {
			dst[i] += ws[j] * wc
		}
	}
	dst[c] = 1
}
