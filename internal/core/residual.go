// Residual-support lists: submodularity per object, not only per
// candidate. Under max aggregation
//
//	Δ(c | S) = Σ_i ω_i·max(0, Sim(o_i, c) − best_i)
//
// and best_i never falls during a run, so the residual support
// R_c = {i : Sim(o_i, c) > best_i} can only shrink: an object that left
// it contributes nothing to c's gain ever again. Lazy forward (Lemma
// 4.1) already skips candidates whose stale gain cannot win; this file
// skips, inside a candidate it does re-evaluate, the objects that can
// no longer add to it. A dense evaluation of c (fill a row, reduce it,
// chunk by chunk — the values of parallel.go) also records R_c as
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
// return against the same best, at every Parallelism, and Selected,
// Gains, Score and Evals do not move; under the geoselcheck tag every
// walk is recomputed densely and compared (invariant.ResidualGain).
//
// Ownership. A list is valid only against a best that has not fallen
// since it was recorded. evaluator.marginalBatch takes best as a
// parameter and is called with unrelated vectors (tests, Score's
// evaluator), so the lists do not live there: a residual is bound to
// one aggregation state for its lifetime — the run's — and its entry
// point takes no best.
//
// Single writer. Workers evaluate densely into per-slot scratch; the
// orchestrating goroutine copies what they captured into the arena
// after the pool pass returns and is the only goroutine that walks,
// compacts or grows. There is no lock and no atomic here. Walks stay
// off the pool altogether: a list is a few dozen pairs, less work than
// one dispatch.
//
// Only max-aggregation runs keep lists. AggSum/AggAvg gains do not
// depend on best and pass straight through to evaluator.marginalBatch.
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

	// Capture scratch: slot k of a pool pass owns at/val[k·|O| :
	// (k+1)·|O|], chunk j of it writes from k·|O| + j·evalChunk and
	// leaves its count in cnt[k·nChunks + j].
	slots int
	at    []uint8
	val   []float64
	cnt   []uint16

	// Pass parameters, read-only to workers while a pass runs: dense
	// holds the positions in cs that have no list.
	cs      []int
	out     []float64
	dense   []int
	chunkFn func(int)
	batchFn func(int)
}

// newResidual binds the lists to best. slots is the number of dense
// evaluations one pool pass may run side by side. pairs overrides the
// arena cap (0: residualMaxPairs) and, when negative, switches the
// lists off — the test-only Selector.residualPairs.
func newResidual(e *evaluator, best []float64, slots, pairs int) *residual {
	r := &residual{e: e, best: best}
	if pairs < 0 || e.sumAgg() {
		return r
	}
	r.limit = residualMaxPairs
	if pairs > 0 {
		r.limit = pairs
	}
	n := len(e.objs)
	r.lists = make([]resList, n)
	r.slots = slots
	r.at = make([]uint8, slots*n)
	r.val = make([]float64, slots*n)
	r.cnt = make([]uint16, slots*e.nChunks)
	r.dense = make([]int, 0, slots)
	r.chunkFn = r.chunkTask
	r.batchFn = r.batchTask
	return r
}

// marginalBatch is evaluator.marginalBatch against the run's state:
// out[k] is the unnormalized marginal gain of cs[k]. Candidates with a
// recorded support are walked inline; the rest are evaluated densely
// on the pool, up to one per slot at a time, and recorded.
//
//geolint:hotpath
func (r *residual) marginalBatch(dst []float64, cs []int) []float64 {
	e := r.e
	if r.lists == nil {
		return e.marginalBatch(dst, r.best, cs)
	}
	if cap(dst) < len(cs) {
		// Grow-once fallback, as in evaluator.marginalBatch.
		dst = make([]float64, len(cs)) //geolint:coldpath
	}
	out := dst[:len(cs)]
	// Walks never reach the pool, whose dispatch is where a cancelled
	// context is otherwise noticed: probe once per call.
	if e.err == nil && e.cancelled() {
		e.err = e.ctx.Err()
	}
	r.cs, r.out = cs, out
	for k := 0; k < len(cs) && e.err == nil; {
		r.dense = r.dense[:0]
		for ; k < len(cs) && len(r.dense) < r.slots; k++ {
			l := &r.lists[cs[k]]
			if l.blk == 0 {
				r.dense = append(r.dense, k)
				continue
			}
			out[k] = r.walk(l)
			if invariant.Enabled {
				invariant.ResidualGain(out[k], e.marginalLocal(r.best, cs[k]),
					"core: residual-support walk of candidate gain")
			}
		}
		switch len(r.dense) {
		case 0:
			continue
		case 1:
			// A lone dense candidate shards its chunks over the pool.
			e.run(e.nChunks, r.chunkFn)
			var gain float64
			for _, p := range e.partials {
				gain += p
			}
			out[r.dense[0]] = gain
		default:
			e.run(len(r.dense), r.batchFn)
		}
		if e.err != nil {
			break // cancelled mid-pass: the scratch is garbage
		}
		for slot, pos := range r.dense {
			r.record(slot, cs[pos])
		}
	}
	return out
}

// chunkTask evaluates one chunk of the pass's lone dense candidate.
//
//geolint:hotpath
func (r *residual) chunkTask(chunk int) {
	r.e.partials[chunk] = r.denseChunk(0, r.cs[r.dense[0]], chunk)
}

// batchTask evaluates the pass's slot-th dense candidate on the calling
// worker, in the chunk order of the sharded pass — bitwise the same
// gain. Cancellation is probed per chunk, as in marginalLocal.
//
//geolint:hotpath
func (r *residual) batchTask(slot int) {
	e := r.e
	pos := r.dense[slot]
	var gain float64
	for chunk := 0; chunk < e.nChunks; chunk++ {
		if e.cancelled() {
			return
		}
		gain += r.denseChunk(slot, r.cs[pos], chunk)
	}
	r.out[pos] = gain
}

// denseChunk is marginalChunk under max aggregation that also captures
// the chunk's residual support into the slot's scratch.
//
//geolint:hotpath
func (r *residual) denseChunk(slot, c, chunk int) float64 {
	e := r.e
	lo, hi := chunkBounds(chunk, len(e.objs))
	var buf [evalChunk]float64
	s := buf[:hi-lo]
	e.rows.Fill(s, lo, hi, c)
	from := slot*len(e.objs) + lo
	part, n := marginalMaxRecord(e.w[lo:hi], r.best[lo:hi], s, r.at[from:from+hi-lo], r.val[from:from+hi-lo])
	r.cnt[slot*e.nChunks+chunk] = uint16(n)
	return part
}

// record moves what slot captured for candidate c into the arena,
// unless the support is still too long or the arena is full. Only the
// orchestrating goroutine calls it, after the pool pass has returned.
func (r *residual) record(slot, c int) {
	e := r.e
	cnt := r.cnt[slot*e.nChunks : (slot+1)*e.nChunks]
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
		from := slot*len(e.objs) + chunk*evalChunk
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
