// Package livestore is the mutable, versioned object store behind live
// ingestion: writers apply batched mutations (insert/update/delete) and
// each committed batch publishes a new immutable Snapshot under a
// monotone version. Snapshots implement geodata.View, so the whole read
// stack — core selections, isos sessions, sampling, prefetch — runs
// against a pinned consistent epoch with zero read-path locking; the
// current snapshot is swapped in with one atomic pointer store.
//
// Storage is append-plus-tombstone: object slots are only ever appended
// and never reused, deletes and updates tombstone the old slot, and
// older snapshots keep reading their shorter prefix of the shared
// backing array (the writer appends strictly beyond every published
// length, so there is no write under any reader's feet). The spatial
// index is maintained incrementally: an epoch commit clones the grid's
// cell-header table and rewrites only dirty cells, instead of
// rebuilding the index — see grid.go and BenchmarkEpochCommit. Slots
// are never compacted, so memory grows with the total mutation count,
// not the live count; Stats.DeadSlots tracks the cost.
// The slot array is reserved at twice the seed size and doubles when
// it fills.
package livestore

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/invariant"
	"geosel/internal/textsim"
)

// Store is the writer half of the live store. All mutation entry points
// (Apply, Enqueue, Flush) serialize on an internal lock; any number of
// concurrent readers obtain snapshots through Snapshot or Current
// without locking.
type Store struct {
	mu  sync.Mutex
	cur atomic.Pointer[Snapshot]

	// Writer-owned state, guarded by mu. objs is the append head over
	// the shared backing array; every published snapshot holds a
	// full-length-capped prefix of it.
	objs      []geodata.Object
	vocab     *textsim.Vocabulary
	live      []uint64
	liveCount int
	byID      map[int]int32
	gr        *cowGrid

	parallelism int
	ingestBatch int

	pending []Mutation

	batches       uint64
	mutations     uint64
	indexCommitNs int64
	totals        Outcome
}

// Stats is a point-in-time summary of the store, served by the HTTP
// endpoint GET /store/stats.
type Stats struct {
	// Version is the currently published snapshot's epoch.
	Version uint64
	// Live is the number of live objects.
	Live int
	// Slots is the total slot count, live plus tombstoned.
	Slots int
	// DeadSlots counts tombstoned slots; they are never reclaimed (see
	// the package comment), so this is the append-only memory overhead.
	DeadSlots int
	// Pending is the number of queued mutations not yet committed.
	Pending int
	// Batches and Mutations count committed epochs and the mutations
	// they carried.
	Batches   uint64
	Mutations uint64
	// IndexCommitNs accumulates wall time spent inside the incremental
	// grid commit across all epochs — the index-maintenance share of
	// Apply.
	IndexCommitNs int64
	// Totals accumulates the per-batch outcomes since construction.
	Totals Outcome
}

// New builds a live store seeded with the collection's objects and
// publishes its version-0 snapshot. The objects (and the grid geometry,
// which is fixed at construction) are copied out of col, so the caller
// keeps ownership of its collection; the vocabulary is shared and
// becomes writer-owned — the caller must not tokenize against it, and
// must call ApplyTFIDF before New or never (reweighting under live
// readers would race).
//
// External IDs must be unique: mutations are keyed by geodata.Object.ID.
func New(col *geodata.Collection, cfg engine.Config) (*Store, error) {
	if col == nil {
		return nil, fmt.Errorf("livestore: nil collection")
	}
	cfg = cfg.WithDefaults()
	if cfg.IngestBatch <= 0 {
		return nil, fmt.Errorf("livestore: IngestBatch = %d must be positive", cfg.IngestBatch)
	}

	// Every mutation but a delete appends a slot, so the array is
	// reserved at twice the seed and doubled from there (applyLocked).
	n := len(col.Objects)
	objs := make([]geodata.Object, n, 2*n+16)
	copy(objs, col.Objects)
	vocab := col.Vocab
	if vocab == nil {
		vocab = textsim.NewVocabulary()
	}

	byID := make(map[int]int32, n)
	for i, o := range objs {
		if prev, dup := byID[o.ID]; dup {
			return nil, fmt.Errorf("livestore: duplicate external id %d at positions %d and %d", o.ID, prev, i)
		}
		byID[o.ID] = int32(i)
	}

	live := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		setBit(live, i)
	}

	// Version 0 delegates reads to a bulk-loaded R-tree over the same
	// objects, so an unmutated live store is bitwise-identical to the
	// static engine (see Snapshot). The grid is still built now: its
	// geometry is frozen here and every later epoch derives from it.
	snapCol := &geodata.Collection{Objects: objs[:n:n], Vocab: vocab}
	base, err := geodata.NewStore(snapCol)
	if err != nil {
		return nil, err
	}

	s := &Store{
		objs:        objs,
		vocab:       vocab,
		live:        live,
		liveCount:   n,
		byID:        byID,
		gr:          rebuildGrid(objs, live),
		parallelism: cfg.Parallelism,
		ingestBatch: cfg.IngestBatch,
	}
	s.cur.Store(&Snapshot{version: 0, col: snapCol, liveCount: n, base: base})
	return s, nil
}

// Snapshot implements geodata.Source: the currently published view and
// its version, obtained without locking.
func (s *Store) Snapshot() (geodata.View, uint64) {
	sn := s.cur.Load()
	return sn, sn.version
}

// Current returns the currently published snapshot.
func (s *Store) Current() *Snapshot { return s.cur.Load() }

// Stats returns a point-in-time summary.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Version:       s.cur.Load().version,
		Live:          s.liveCount,
		Slots:         len(s.objs),
		DeadSlots:     len(s.objs) - s.liveCount,
		Pending:       len(s.pending),
		Batches:       s.batches,
		Mutations:     s.mutations,
		IndexCommitNs: s.indexCommitNs,
		Totals:        s.totals,
	}
}

// Apply commits one batch of mutations as a single epoch and publishes
// the resulting snapshot, returning its version and what the batch did.
// Batches are atomic: every mutation is validated up front and a failed
// batch (invalid mutation, cancelled context) changes nothing. A batch
// that turns out to be a no-op (empty, or all Missed) publishes nothing
// and returns the current version.
//
// Mutations are applied in order within the batch, so a later mutation
// sees the staged effect of an earlier one (insert then delete of the
// same ID nets out to nothing).
func (s *Store) Apply(ctx context.Context, muts []Mutation) (uint64, Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(ctx, muts)
}

func (s *Store) applyLocked(ctx context.Context, muts []Mutation) (uint64, Outcome, error) {
	cur := s.cur.Load()
	for i, m := range muts {
		if err := m.validate(); err != nil {
			return cur.version, Outcome{}, fmt.Errorf("mutation %d: %w", i, err)
		}
	}

	// Stage the batch without touching writer state: a sequential walk
	// over an overlay, so in-batch mutations compose (upsert chains,
	// insert-then-delete). Tombstoning a slot staged in this same batch
	// kills the staged slot before it ever reaches the index.
	baseN := len(s.objs)
	var (
		appended     []geodata.Object
		appendedLive []bool
		delSet       map[int32]bool
		overlay      map[int]int32 // external ID -> staged pos, -1 = deleted
		out          Outcome
	)
	resolve := func(id int) (int32, bool) {
		if p, ok := overlay[id]; ok {
			return p, p >= 0
		}
		p, ok := s.byID[id]
		return p, ok
	}
	tombstone := func(pos int32) {
		if int(pos) >= baseN {
			appendedLive[int(pos)-baseN] = false
			return
		}
		if delSet == nil {
			delSet = make(map[int32]bool)
		}
		delSet[pos] = true
	}
	stage := func(id int, pos int32) {
		if overlay == nil {
			overlay = make(map[int]int32)
		}
		overlay[id] = pos
	}
	appendObj := func(m Mutation) int32 {
		pos := int32(baseN + len(appended))
		appended = append(appended, geodata.Object{
			ID:     m.ID,
			Loc:    m.Loc,
			Weight: m.Weight,
			Vec:    textsim.FromText(s.vocab, m.Text),
			Text:   m.Text,
		})
		appendedLive = append(appendedLive, true)
		return pos
	}
	for _, m := range muts {
		pos, liveNow := resolve(m.ID)
		switch m.Op {
		case OpInsert, OpUpdate:
			if liveNow {
				tombstone(pos)
				stage(m.ID, appendObj(m))
				out.Updated++
			} else if m.Op == OpInsert {
				stage(m.ID, appendObj(m))
				out.Inserted++
			} else {
				out.Missed++
			}
		case OpDelete:
			if !liveNow {
				out.Missed++
				continue
			}
			tombstone(pos)
			stage(m.ID, -1)
			out.Deleted++
		}
	}

	if len(appended) == 0 && len(delSet) == 0 {
		// Nothing changed (empty batch or all Missed): keep the version.
		return cur.version, out, nil
	}

	// Grid delta. Dead staged slots (insert-then-delete within the
	// batch) still occupy a position but never enter the index.
	dels := make([]posLoc, 0, len(delSet))
	for pos := range delSet {
		dels = append(dels, posLoc{pos: pos, loc: s.objs[pos].Loc})
	}
	adds := make([]posLoc, 0, len(appended))
	for i, ob := range appended {
		if appendedLive[i] {
			adds = append(adds, posLoc{pos: int32(baseN + i), loc: ob.Loc})
		}
	}

	// The only fallible step, run before any writer state changes so a
	// cancelled commit leaves the store exactly as it was.
	commitStart := time.Now()
	nextGr, dirtyKeys, err := s.gr.commit(ctx, dels, adds, s.parallelism)
	if err != nil {
		return cur.version, Outcome{}, err
	}
	s.indexCommitNs += time.Since(commitStart).Nanoseconds()

	// The epoch's dirty-cell set as world rectangles, recorded on the
	// next snapshot's capped history so readers (the tile cache) can ask
	// "what changed since version V" without holding the writer lock.
	dirtyCells := make([]geo.Rect, len(dirtyKeys))
	for i, k := range dirtyKeys {
		dirtyCells[i] = s.gr.cellRect(k)
	}

	// Point of no return: mutate writer state, then publish. Appends go
	// strictly beyond every published snapshot's length, so concurrent
	// readers of older epochs never observe them.
	//
	// Past the reserve the array doubles explicitly: older snapshots pin
	// the array they were cut from, so every regrowth holds two arrays
	// live, and append's 1.25× steps would regrow twice as often.
	if need := baseN + len(appended); need > cap(s.objs) {
		grown := make([]geodata.Object, baseN, max(need, 2*cap(s.objs)))
		copy(grown, s.objs)
		s.objs = grown
	}
	s.objs = append(s.objs, appended...)
	n := len(s.objs)
	for len(s.live) < (n+63)/64 {
		s.live = append(s.live, 0)
	}
	for pos := range delSet {
		clearBit(s.live, int(pos))
		s.liveCount--
	}
	for i, ob := range appended {
		pos := baseN + i
		if appendedLive[i] {
			setBit(s.live, pos)
			s.liveCount++
		}
		// byID tracks the newest slot for the ID even when it is dead;
		// the overlay below fixes up deletions.
		s.byID[ob.ID] = int32(pos)
	}
	for id, pos := range overlay {
		if pos < 0 {
			delete(s.byID, id)
		}
	}
	s.gr = nextGr
	s.batches++
	s.mutations += uint64(len(muts))
	s.totals.add(out)

	if invariant.Enabled {
		pop := 0
		for _, w := range s.live {
			for ; w != 0; w &= w - 1 {
				pop++
			}
		}
		invariant.Assertf(pop == s.liveCount,
			"livestore: live bitset popcount %d disagrees with liveCount %d at version %d",
			pop, s.liveCount, cur.version+1)
		invariant.Assertf(len(s.byID) == s.liveCount,
			"livestore: byID size %d disagrees with liveCount %d", len(s.byID), s.liveCount)
	}

	liveCopy := make([]uint64, len(s.live))
	copy(liveCopy, s.live)
	next := &Snapshot{
		version:   cur.version + 1,
		col:       &geodata.Collection{Objects: s.objs[:n:n], Vocab: s.vocab},
		live:      liveCopy,
		liveCount: s.liveCount,
		gr:        s.gr,
		dirty:     appendDirtyEpoch(cur.dirty, cur.version+1, dirtyCells),
	}
	s.cur.Store(next)
	return next.version, out, nil
}

// appendDirtyEpoch extends a snapshot's dirty-epoch history with one
// committed epoch, keeping at most maxDirtyHistory recent epochs. The
// history is copied, never shared mutably: every snapshot owns its
// header slice, while the per-epoch rect slices (immutable once built)
// are shared across snapshots.
func appendDirtyEpoch(hist []epochDirty, version uint64, cells []geo.Rect) []epochDirty {
	if len(hist) >= maxDirtyHistory {
		hist = hist[len(hist)-maxDirtyHistory+1:]
	}
	out := make([]epochDirty, 0, len(hist)+1)
	out = append(out, hist...)
	return append(out, epochDirty{version: version, cells: cells})
}

// Enqueue buffers one mutation on the ingest queue and commits the
// buffer as a single epoch once it reaches the configured batch size
// (engine.Config.IngestBatch). It returns the published version (the
// current one if the buffer did not flush), whether a flush happened,
// and the flush outcome.
func (s *Store) Enqueue(ctx context.Context, m Mutation) (uint64, bool, Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := m.validate(); err != nil {
		return s.cur.Load().version, false, Outcome{}, err
	}
	s.pending = append(s.pending, m)
	if len(s.pending) < s.ingestBatch {
		return s.cur.Load().version, false, Outcome{}, nil
	}
	v, out, err := s.flushLocked(ctx)
	return v, err == nil, out, err
}

// Flush commits any queued mutations immediately as one epoch.
func (s *Store) Flush(ctx context.Context) (uint64, Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked(ctx)
}

func (s *Store) flushLocked(ctx context.Context) (uint64, Outcome, error) {
	if len(s.pending) == 0 {
		return s.cur.Load().version, Outcome{}, nil
	}
	batch := s.pending
	v, out, err := s.applyLocked(ctx, batch)
	if err != nil {
		// The batch failed atomically; keep it queued so a retryable
		// failure (context cancellation) is not silently dropped.
		return v, out, err
	}
	s.pending = s.pending[:0]
	return v, out, nil
}
