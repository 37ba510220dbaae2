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
// no longer add to it. A dense evaluation of c (fill a row, reduce it —
// the values of kernels.go) also records R_c as ascending
// (i, Sim(o_i, c)) pairs, and every later evaluation of c walks the
// recorded pairs only, dropping the ones best has overtaken.
// On the bench fixture a cold Cosine select evaluates each candidate
// about three times while 12 % of |O| is in R_c at the first evaluation
// and 3 % at the later ones (experiments.TestResidualSupport), so two
// of three O(|O|) rows become a few dozen compares and the metric is
// never called twice for a pair a candidate keeps.
//
// Bitwise contract. The dense reduce adds the terms ω_i·(v − best_i)
// of the objects with v > best_i in index order into one gain that
// starts at +0.0. A walk meets the same objects in the same order
// (pairs are ascending; an object outside the list had v ≤ best_i when
// it was recorded and best_i has not fallen since), reads the same v
// (it was stored, not recomputed) and adds the same terms into one
// gain that starts at +0.0. Same terms, same order, one accumulator: a
// walked gain is the float the dense pass would return against the
// same best, and Selected, Gains, Score and Evals do not move; under
// the geoselcheck tag every walk is recomputed densely and compared
// (invariant.ResidualGain).
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
// enough to keep. The residual, its scratch and its blocks live in the
// run's arena (arena.go) and are reused by the next run: the blocks
// are uniform, so any block an earlier run left serves any later one.
package core

import "geosel/internal/invariant"

// The three constants below trade memory for dense rows saved; the
// measurements behind each are in EXPERIMENTS.md "Residual lists".
const (
	// residualShare: a captured support is recorded only while it holds
	// at most 1/residualShare of the objects. A longer one is evaluated
	// densely once more and recorded then, when best has risen.
	residualShare = 4
	// residualBlock is the size in pairs (12 bytes each) of every block
	// of the arena, which grows a block at a time and keeps its blocks
	// across runs. A list never straddles blocks, so a support longer
	// than a block is not recorded.
	residualBlock = 4096
	// residualMaxPairs caps the arena of one run (12 MiB). A candidate
	// whose support does not fit stays dense.
	residualMaxPairs = 1 << 20
)

// resList locates one candidate's recorded support: n pairs from off in
// block blk.
type resList struct {
	// blk is 1-based; 0 means nothing is recorded and the candidate is
	// evaluated densely.
	blk    int32
	off, n int32
}

// resBlock is one block of the arena: parallel index and value
// columns, filled from the front.
type resBlock struct {
	at   []int32
	val  []float64
	used int
}

// residual evaluates marginal gains for one run against the run's own
// aggregation state, through recorded supports where it has them.
type residual struct {
	e    *evaluator
	best []float64
	// lists is indexed by object id; empty, it switches the lists off
	// and every call falls through to the evaluator.
	lists []resList
	// blocks are the run's blocks; blocks[len:cap] are the free ones
	// earlier runs left, each with its columns still allocated.
	blocks []resBlock
	// pairs is the capacity of the run's blocks, bounded by limit;
	// block is the pairs a block holds, residualBlock unless the limit
	// is smaller.
	pairs, limit, block int

	// Capture scratch of a dense evaluation, |O| pairs.
	at  []int32
	val []float64
}

// reset binds the lists to best for a new run, keeping the blocks as
// free ones. pairs overrides the arena cap (0: residualMaxPairs), and
// a block is never larger than the cap; negative pairs switches the
// lists off — the test-only Selector.residualPairs.
func (r *residual) reset(e *evaluator, best []float64, pairs int) {
	r.e, r.best = e, best
	r.lists, r.blocks, r.pairs = r.lists[:0], r.blocks[:0], 0
	if pairs < 0 {
		return
	}
	r.limit = residualMaxPairs
	if pairs > 0 {
		r.limit = pairs
	}
	r.block = min(residualBlock, r.limit)
	n := len(e.objs)
	r.lists = resize(r.lists, n)
	clear(r.lists)
	r.at = resize(r.at, n)
	r.val = resize(r.val, n)
}

// marginal is evaluator.marginal against the run's state: the
// unnormalized marginal gain of c, walked from its recorded support
// when it has one, else evaluated densely and recorded.
//
//geolint:hotpath
func (r *residual) marginal(c int) float64 {
	e := r.e
	if len(r.lists) == 0 {
		return e.marginal(r.best, c)
	}
	if l := &r.lists[c]; l.blk != 0 {
		// A walk makes no metric call and fills no row, where a cancelled
		// context is otherwise noticed: probe once per walk.
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
	gain, n := marginalMaxRecord(e.w, r.best, e.row, r.at, r.val)
	r.record(c, n)
	return gain
}

// record moves the n pairs the scratch captured for candidate c into
// the arena, unless the support is still too long or the arena is full.
func (r *residual) record(c, n int) {
	if n > len(r.e.objs)/residualShare {
		return
	}
	var b *resBlock
	if len(r.blocks) > 0 {
		b = &r.blocks[len(r.blocks)-1]
	}
	if b == nil || len(b.at)-b.used < n {
		if b = r.grow(n); b == nil {
			return
		}
	}
	off := b.used
	copy(b.at[off:], r.at[:n])
	copy(b.val[off:], r.val[:n])
	b.used += n
	r.lists[c] = resList{blk: int32(len(r.blocks)), off: int32(off), n: int32(n)}
	if invariant.Enabled {
		at, val := b.at[off:off+n], b.val[off:off+n]
		for k, i := range at {
			invariant.Assertf(k == 0 || at[k-1] < i,
				"core: residual support of candidate %d not ascending at object %d", c, i)
			invariant.Assertf(val[k] > r.best[i],
				"core: residual support of candidate %d records object %d at %v <= best %v", c, i, val[k], r.best[i])
		}
	}
}

// grow appends a block with room for need pairs and returns it — a
// free one when an earlier run left one — or nil when need exceeds a
// block or another block would take the arena past its cap. It is
// where a warmed-up lazyStep can allocate.
func (r *residual) grow(need int) *resBlock {
	if need > r.block || r.pairs+r.block > r.limit {
		return nil
	}
	r.pairs += r.block
	if len(r.blocks) < cap(r.blocks) {
		r.blocks = r.blocks[:len(r.blocks)+1]
	} else {
		r.blocks = append(r.blocks, resBlock{})
	}
	b := &r.blocks[len(r.blocks)-1]
	if b.at == nil {
		b.at, b.val = make([]int32, residualBlock), make([]float64, residualBlock)
	}
	b.at, b.val, b.used = b.at[:r.block], b.val[:r.block], 0
	return b
}

// walk returns c's gain from its recorded support and compacts the
// list in place to the pairs best has not overtaken.
//
//geolint:hotpath
func (r *residual) walk(l *resList) float64 {
	b := &r.blocks[l.blk-1]
	at := b.at[l.off : l.off+l.n]
	val := b.val[l.off : l.off+l.n][:len(at)]
	w, best := r.e.w, r.best
	var gain float64
	kept := 0
	for k, o := range at {
		if v, bi := val[k], best[o]; v > bi {
			gain += w[o] * (v - bi)
			at[kept], val[kept] = o, v
			kept++
		}
	}
	l.n = int32(kept)
	return gain
}
