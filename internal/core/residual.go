// Residual-support lists: submodularity per object, not only per
// candidate. Under the max of Equation 1
//
//	Δ(c | S) = Σ_i ω_i·max(0, Sim(o_i, c) − best_i)
//
// and best_i never falls during a run, so the residual support
// R_c = {i : Sim(o_i, c) > best_i} can only shrink: an object that left
// it contributes nothing to c's gain ever again. Lazy forward (Lemma
// 4.1) already skips candidates whose stale gain cannot win; this file
// skips, inside a candidate it does re-evaluate, the objects that can
// no longer add to it. A dense evaluation of c (fill a row, reduce it,
// chunk by chunk — the values of kernels.go) also records R_c as
// ascending (i, Sim(o_i, c)) pairs, chunk by chunk, and every later
// evaluation of c walks the recorded pairs only, dropping the ones best
// has overtaken.
// On the bench fixture a cold Cosine select evaluates each candidate
// about three times while 12 % of |O| is in R_c at the first evaluation
// and 3 % at the later ones (experiments.TestResidualSupport), so two
// of three O(|O|) rows become a few dozen compares and the metric is
// never called twice for a pair a candidate keeps.
//
// Bitwise contract. The dense reduce adds, per chunk, the terms
// ω_i·(v − best_i) of the objects with v > best_i in index order into a
// partial that starts at +0.0, and adds the partials in chunk order
// into a gain that starts at +0.0. A walk meets the same objects in
// the same order (pairs are ascending; an object outside the list had
// v ≤ best_i when it was recorded and best_i has not fallen since),
// reads the same v (it was stored, not recomputed), and keeps the dense
// pass's partials: a list is stored as one run per chunk, each run is
// summed from +0.0 and added to the gain in chunk order. The chunks
// with an empty run are the ones whose dense partial is +0.0, and
// reduce.go's header shows adding +0.0 to an accumulator is the
// identity. So a walked gain is the float the dense pass would
// return against the same best, and Selected, Gains, Score and Evals do
// not move; under the geoselcheck tag every walk is recomputed densely
// and compared (invariant.ResidualGain).
//
// Ownership. A list is valid only against a best that has not fallen
// since it was recorded. evaluator.marginal takes best as a parameter
// and is called with unrelated vectors (tests, Score's evaluator), so
// the lists do not live there: a residual is bound to one aggregation
// state for its lifetime — the run's — and its entry point takes no
// best.
//
// A dense evaluation captures into one scratch buffer of |O| pairs,
// which record then copies into the arena when the support is short
// enough to keep.
package core

import "geosel/internal/invariant"

// The three constants below trade memory for dense rows saved; the
// measurements behind each are in EXPERIMENTS.md "Residual lists".
const (
	// residualShare: a captured support is recorded only while it holds
	// at most 1/residualShare of the objects. A longer one is evaluated
	// densely once more and recorded then, when best has risen.
	residualShare = 4
	// residualBlock is the arena's growth step in pairs (9 bytes each),
	// so that a run allocates about what it records. The first blocks
	// are smaller — each as large as all before it, from 1/16 of a step
	// — so that a run which records little allocates little.
	residualBlock = 4096
	// residualMaxPairs caps the arena of one run (9 MiB). A candidate
	// whose support does not fit stays dense.
	residualMaxPairs = 1 << 20
)

// A pair names its object by a one-byte offset into its chunk.
const _ = uint8(evalChunk - 1)

// resList locates one candidate's recorded support: n pairs from off in
// block blk, split into per-chunk runs by the ord-th row of the run's
// directory.
type resList struct {
	// blk is 1-based; 0 means nothing is recorded and the candidate is
	// evaluated densely.
	blk         int32
	off, n, ord int32
}

// resBlock is one growth step of the arena: parallel offset and value
// columns, filled from the front.
type resBlock struct {
	at   []uint8
	val  []float64
	used int
}

// residual evaluates marginal gains for one run against the run's own
// aggregation state, through recorded supports where it has them.
type residual struct {
	e    *evaluator
	best []float64
	// lists is indexed by object id; nil switches the lists off and
	// every call falls through to the evaluator.
	lists  []resList
	blocks []resBlock
	// dir holds nChunks run lengths per recorded list.
	dir []uint16
	// pairs is the arena's allocated capacity, bounded by limit.
	pairs, limit int

	// Capture scratch of a dense evaluation: chunk j writes at/val from
	// j·evalChunk and leaves its count in cnt[j].
	at  []uint8
	val []float64
	cnt []uint16
}

// newResidual binds the lists to best. pairs overrides the arena cap
// (0: residualMaxPairs) and, when negative, switches the lists off —
// the test-only Selector.residualPairs.
func newResidual(e *evaluator, best []float64, pairs int) *residual {
	r := &residual{e: e, best: best}
	if pairs < 0 {
		return r
	}
	r.limit = residualMaxPairs
	if pairs > 0 {
		r.limit = pairs
	}
	n := len(e.objs)
	r.lists = make([]resList, n)
	r.at = make([]uint8, n)
	r.val = make([]float64, n)
	r.cnt = make([]uint16, e.nChunks)
	return r
}

// marginal is evaluator.marginal against the run's state: the
// unnormalized marginal gain of c, walked from its recorded support
// when it has one, else evaluated densely and recorded.
//
//geolint:hotpath
func (r *residual) marginal(c int) float64 {
	e := r.e
	if r.lists == nil {
		return e.marginal(r.best, c)
	}
	if l := &r.lists[c]; l.blk != 0 {
		// A walk crosses no chunk boundary, where a cancelled context is
		// otherwise noticed: probe once per walk.
		if e.stop() {
			return 0
		}
		gain := r.walk(l)
		if invariant.Enabled {
			invariant.ResidualGain(gain, e.marginal(r.best, c),
				"core: residual-support walk of candidate gain")
		}
		return gain
	}
	if !e.fill(c) {
		return 0
	}
	var gain float64
	for chunk := 0; chunk < e.nChunks; chunk++ {
		if e.stop() {
			return 0 // cancelled mid-row: the scratch is garbage
		}
		lo, hi := chunkBounds(chunk, len(e.objs))
		part, n := marginalMaxRecord(e.w[lo:hi], r.best[lo:hi], e.row[lo:hi], r.at[lo:hi], r.val[lo:hi])
		r.cnt[chunk] = uint16(n)
		gain += part
	}
	r.record(c)
	return gain
}

// record moves what the scratch captured for candidate c into the
// arena, unless the support is still too long or the arena is full.
func (r *residual) record(c int) {
	e, cnt := r.e, r.cnt
	total := 0
	for _, m := range cnt {
		total += int(m)
	}
	if total > len(e.objs)/residualShare {
		return
	}
	var b *resBlock
	if len(r.blocks) > 0 {
		b = &r.blocks[len(r.blocks)-1]
	}
	if b == nil || len(b.at)-b.used < total {
		if b = r.grow(total); b == nil {
			return
		}
	}
	off := b.used
	for chunk, m := range cnt {
		from := chunk * evalChunk
		copy(b.at[b.used:], r.at[from:from+int(m)])
		copy(b.val[b.used:], r.val[from:from+int(m)])
		b.used += int(m)
	}
	r.lists[c] = resList{blk: int32(len(r.blocks)), off: int32(off), n: int32(total), ord: int32(len(r.dir) / e.nChunks)}
	r.dir = append(r.dir, cnt...)
	if invariant.Enabled {
		at, val := b.at[off:], b.val[off:]
		for chunk, m := range cnt {
			for k := 0; k < int(m); k++ {
				i := chunk*evalChunk + int(at[k])
				invariant.Assertf(k == 0 || at[k-1] < at[k],
					"core: residual support of candidate %d not ascending at object %d", c, i)
				invariant.Assertf(val[k] > r.best[i],
					"core: residual support of candidate %d records object %d at %v <= best %v", c, i, val[k], r.best[i])
			}
			at, val = at[m:], val[m:]
		}
	}
}

// grow appends a block with room for need pairs and returns it, or nil
// when that would take the arena past its cap. With the directory's
// append in record it is where a warmed-up lazyStep can allocate.
//
//geolint:coldpath
func (r *residual) grow(need int) *resBlock {
	size := max(need, min(residualBlock, max(r.pairs, residualBlock/16)))
	if r.pairs+size > r.limit {
		return nil
	}
	r.pairs += size
	r.blocks = append(r.blocks, resBlock{at: make([]uint8, size), val: make([]float64, size)})
	return &r.blocks[len(r.blocks)-1]
}

// walk returns c's gain from its recorded support and compacts the
// list, run by run and in place, to the pairs best has not overtaken.
//
//geolint:hotpath
func (r *residual) walk(l *resList) float64 {
	b := &r.blocks[l.blk-1]
	at := b.at[l.off : l.off+l.n]
	val := b.val[l.off : l.off+l.n]
	nc := r.e.nChunks
	dir := r.dir[int(l.ord)*nc : (int(l.ord)+1)*nc]
	var gain float64
	next, kept := 0, 0
	for chunk, m := range dir {
		if m == 0 {
			continue
		}
		w, best := r.e.w[chunk*evalChunk:], r.best[chunk*evalChunk:]
		var part float64
		run := kept
		for _, o := range at[next : next+int(m)] {
			v := val[next]
			next++
			if bi := best[o]; v > bi {
				part += w[o] * (v - bi)
				at[kept], val[kept] = o, v
				kept++
			}
		}
		dir[chunk] = uint16(kept - run)
		gain += part
	}
	l.n = int32(kept)
	return gain
}
