// Package livestore is the mutable, versioned object store behind live
// ingestion: writers apply batched mutations (insert/update/delete) and
// each committed batch publishes a new immutable Snapshot under a
// monotone version. Snapshots implement geodata.View, so the whole read
// stack — core selections, isos sessions, sampling, prefetch — runs
// against a pinned consistent epoch with zero read-path locking; the
// current snapshot is swapped in with one atomic pointer store.
//
// Storage is append-plus-tombstone between compactions: deletes and
// updates tombstone the old slot, inserts and updates append, and older
// snapshots keep reading their shorter prefix of the shared backing
// array (the writer appends strictly beyond every published length, so
// there is no write under any reader's feet). Apply walks a batch over
// the writer's own state — the ID index and the live bitset change in
// place, new slots collect in one slice and the grid's deletes in batch
// order — and publishing copies the bitset, so no reader sees the walk.
// The spatial index is
// geodata's grid, maintained incrementally: an epoch commit clones the
// grid's cell-header table and rewrites only dirty cells, instead of
// rebuilding the index — see geodata.Grid.Commit and
// BenchmarkEpochCommit.
//
// Memory follows the live objects. Version 0 reads the caller's seed
// array in place, capped at its length; a batch that does not fit
// either grows the array by half or, when at least a quarter of its
// slots are dead, compacts: the live slots (in position order) and the
// batch move to a fresh array with half again as much headroom,
// indexed by the same build as version 0.
// Both copy amortized O(1) slots per mutation. Pinned snapshots keep
// the arrays they were cut from. A compaction renumbers positions;
// Snapshot.LivePos and Snapshot.DirtyRects carry readers across it.
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

// Store is the writer half of the live store. Apply, its one mutation
// entry point, serializes on an internal lock; any number of concurrent
// readers obtain snapshots through Snapshot or Current without locking.
type Store struct {
	mu  sync.Mutex
	cur atomic.Pointer[Snapshot]

	// Writer-owned state, guarded by mu. objs is the append head over
	// the shared backing array; every published snapshot holds a
	// full-length-capped prefix of it. comp is the latest compaction.
	objs      []geodata.Object
	vocab     *textsim.Vocabulary
	live      []uint64
	liveCount int
	byID      map[int]int32
	gr        *geodata.Grid
	comp      *compaction

	batches       uint64
	mutations     uint64
	compactions   uint64
	indexCommitNs int64
	totals        Outcome
}

// Stats is a point-in-time summary of the store. GET /store/stats
// serves every field but IndexCommitNs, with Totals spread into its
// four counts; IndexCommitNs is read in process (the benchmark's
// livestore.index_commit_ms).
type Stats struct {
	// Version is the currently published snapshot's epoch.
	Version uint64
	// Live is the number of live objects.
	Live int
	// Slots is the total slot count, live plus tombstoned.
	Slots int
	// DeadSlots counts tombstoned slots awaiting the next compaction.
	DeadSlots int
	// Capacity is the slot array's allocated length; Slots grows into it
	// before the next regrowth or compaction (see the package comment).
	Capacity int
	// Compactions counts compaction epochs since construction.
	Compactions uint64
	// Batches and Mutations count committed epochs and the mutations
	// they carried.
	Batches   uint64
	Mutations uint64
	// IndexCommitNs accumulates wall time spent inside the incremental
	// grid commit (or a compaction's rebuild) across all epochs — the
	// index-maintenance share of Apply.
	IndexCommitNs int64
	// Totals accumulates the per-batch outcomes since construction.
	Totals Outcome
}

// New builds a live store seeded with the collection's objects and
// publishes its version-0 snapshot. The store reads col's objects in
// place (it never writes below a published length), so the caller must
// not modify them afterwards; the collection must pass
// geodata.Collection.Validate. The vocabulary is shared too and
// becomes writer-owned — the caller must not tokenize against it, and
// must call ApplyTFIDF before New or never (reweighting under live
// readers would race).
//
// External IDs must be unique: mutations are keyed by geodata.Object.ID.
//
// No field of cfg configures the store; the parameter stays for the
// callers that pass their serving config.
func New(col *geodata.Collection, cfg engine.Config) (*Store, error) {
	if col == nil {
		return nil, fmt.Errorf("livestore: nil collection")
	}
	if err := col.Validate(); err != nil {
		return nil, err
	}
	n := len(col.Objects)
	objs := col.Objects[:n:n]
	vocab := col.Vocab
	if vocab == nil {
		vocab = textsim.NewVocabulary()
	}
	byID := make(map[int]int32, len(objs))
	for i, o := range objs {
		byID[o.ID] = int32(i)
	}
	if len(byID) != len(objs) { // a repeated ID kept only its last position
		for i, o := range objs {
			if p := int(byID[o.ID]); p != i {
				return nil, fmt.Errorf("livestore: duplicate external id %d at positions %d and %d", o.ID, i, p)
			}
		}
	}
	s := &Store{vocab: vocab, byID: byID}
	s.seed(objs)
	s.publish(0, nil)
	return s, nil
}

// seed makes objs, every slot live, the writer's state: a full bitset
// and a grid built from scratch. It is version 0's construction and
// every compaction's; each caller brings byID in line with objs.
func (s *Store) seed(objs []geodata.Object) {
	live := make([]uint64, (len(objs)+63)/64)
	for i := range objs {
		setBit(live, i)
	}
	s.objs, s.live, s.liveCount = objs, live, len(objs)
	s.gr = geodata.NewGrid(objs)
}

// publish cuts the writer's state into the snapshot of the given
// version and swaps it in.
func (s *Store) publish(version uint64, dirty []epochDirty) {
	n := len(s.objs)
	live := make([]uint64, len(s.live))
	copy(live, s.live)
	s.cur.Store(&Snapshot{
		version:   version,
		col:       &geodata.Collection{Objects: s.objs[:n:n], Vocab: s.vocab},
		live:      live,
		liveCount: s.liveCount,
		gr:        s.gr,
		comp:      s.comp,
		dirty:     dirty,
	})
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
		Capacity:      cap(s.objs),
		Compactions:   s.compactions,
		Batches:       s.batches,
		Mutations:     s.mutations,
		IndexCommitNs: s.indexCommitNs,
		Totals:        s.totals,
	}
}

// Apply commits one batch of mutations as a single epoch and publishes
// the resulting snapshot, returning its version and what the batch did.
// Batches are atomic: every mutation is validated up front and a batch
// with an invalid mutation changes nothing. A batch that turns out to be
// a no-op (empty, or all Missed) publishes nothing and returns the
// current version. A commit is O(batch + dirty cells) on the calling
// goroutine and runs to completion: ctx is not consulted.
//
// Mutations are applied in order within the batch, so a later mutation
// sees the effect of an earlier one (insert then delete of the same ID
// nets out to nothing).
func (s *Store) Apply(ctx context.Context, muts []Mutation) (uint64, Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	for i, m := range muts {
		if err := m.validate(); err != nil {
			return cur.version, Outcome{}, fmt.Errorf("mutation %d: %w", i, err)
		}
	}

	// Walk the batch over the writer's own state. byID and the live
	// bitset change in place (publish copies the bitset, so no reader
	// sees the walk); new slots collect in appended, at positions from
	// baseN on, and the grid's deletes in batch order. A slot appended
	// and tombstoned within the batch keeps its position but never
	// reaches the index.
	baseN, liveBefore := len(s.objs), s.liveCount
	var (
		appended []geodata.Object
		dels     []geodata.PosLoc
		out      Outcome
	)
	for _, m := range muts {
		pos, live := s.byID[m.ID]
		if !live && m.Op != OpInsert {
			out.Missed++
			continue
		}
		if live {
			clearBit(s.live, int(pos))
			s.liveCount--
			if int(pos) < baseN {
				dels = append(dels, geodata.PosLoc{Pos: pos, Loc: s.objs[pos].Loc})
			}
		}
		switch {
		case m.Op == OpDelete:
			delete(s.byID, m.ID)
			out.Deleted++
			continue
		case live:
			out.Updated++
		default:
			out.Inserted++
		}
		p := baseN + len(appended)
		appended = append(appended, geodata.Object{
			ID:     m.ID,
			Loc:    m.Loc,
			Weight: m.Weight,
			Vec:    textsim.FromText(s.vocab, m.Text),
			Text:   m.Text,
		})
		if p>>6 == len(s.live) { // positions grow by one, words with them
			s.live = append(s.live, 0)
		}
		setBit(s.live, p)
		s.liveCount++
		s.byID[m.ID] = int32(p)
	}

	if len(appended) == 0 && len(dels) == 0 {
		// Nothing changed (empty batch or all Missed): keep the version.
		return cur.version, out, nil
	}

	// A batch that does not fit the array compacts it when at least a
	// quarter of its slots are dead once the batch lands, and otherwise
	// grows it (commitLocked).
	version := cur.version + 1
	dead := baseN - liveBefore + len(dels)
	var dirty []epochDirty
	if baseN+len(appended) > cap(s.objs) && dead > 0 && 4*dead >= baseN {
		start := time.Now()
		s.compact(version, appended)
		s.indexCommitNs += time.Since(start).Nanoseconds()
	} else {
		dirty = appendDirtyEpoch(cur.dirty, version, s.commitLocked(dels, appended))
	}
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
			pop, s.liveCount, version)
		invariant.Assertf(len(s.byID) == s.liveCount,
			"livestore: byID size %d disagrees with liveCount %d", len(s.byID), s.liveCount)
	}
	s.publish(version, dirty)
	return version, out, nil
}

// commitLocked lands a walked batch in place: the grid commit of dels
// and the appended slots still live, then the appends (growing the array
// by half when they do not fit). It returns the epoch's dirty rectangles
// (geodata.Grid.Commit).
func (s *Store) commitLocked(dels []geodata.PosLoc, appended []geodata.Object) []geo.Rect {
	baseN := len(s.objs)
	adds := make([]geodata.PosLoc, 0, len(appended))
	for i, ob := range appended {
		if pos := baseN + i; bitSet(s.live, pos) {
			adds = append(adds, geodata.PosLoc{Pos: int32(pos), Loc: ob.Loc})
		}
	}
	commitStart := time.Now()
	// The epoch's dirty rectangles are recorded on the next snapshot's
	// capped history, so readers (the tile cache) can ask "what changed
	// since version V" without holding the writer lock.
	nextGr, dirtyRects := s.gr.Commit(dels, adds)
	s.indexCommitNs += time.Since(commitStart).Nanoseconds()

	// Appends go strictly beyond every published
	// snapshot's length, so concurrent readers of older epochs never
	// observe them. A regrowth is explicit: older snapshots pin the
	// array they were cut from, so append's 1.25× steps would regrow
	// (and hold two arrays live) more often.
	if need := baseN + len(appended); need > cap(s.objs) {
		grown := make([]geodata.Object, baseN, max(need, cap(s.objs)+cap(s.objs)/2))
		copy(grown, s.objs)
		s.objs = grown
	}
	s.objs = append(s.objs, appended...)
	s.gr = nextGr
	return dirtyRects
}

// compact lands a walked batch by moving the live slots, old positions
// and then appended ones in position order, into a fresh array with half
// again as much room, indexed by seed. Every ID index entry the walk
// left is live, so each is rewritten in place to its new position. It
// records the old → new position table for the compaction epoch of the
// given version; the snapshot published for it starts an empty dirty
// history, which tells DirtyRects readers that every position moved.
func (s *Store) compact(version uint64, appended []geodata.Object) {
	baseN, n := len(s.objs), s.liveCount
	objs := make([]geodata.Object, 0, n+n/2)
	remap := make([]int32, baseN+len(appended))
	for pos := range remap {
		remap[pos] = -1
		if !bitSet(s.live, pos) {
			continue
		}
		remap[pos] = int32(len(objs))
		if pos < baseN {
			objs = append(objs, s.objs[pos])
		} else {
			objs = append(objs, appended[pos-baseN])
		}
	}
	// In the map's own order: a rewrite in position order hashes into
	// the map at random and made a 100k compaction a third slower.
	for id, pos := range s.byID {
		s.byID[id] = remap[pos]
	}
	var since uint64
	if s.comp != nil {
		since = s.comp.version
	}
	s.seed(objs)
	s.comp = &compaction{version: version, since: since, remap: remap[:baseN]}
	s.compactions++
}

// appendDirtyEpoch extends a snapshot's dirty-epoch history with one
// committed epoch, keeping at most maxDirtyHistory recent epochs. The
// history is copied, never shared mutably: every snapshot owns its
// header slice, while the per-epoch rect slices (immutable once built)
// are shared across snapshots.
func appendDirtyEpoch(hist []epochDirty, version uint64, rects []geo.Rect) []epochDirty {
	if len(hist) >= maxDirtyHistory {
		hist = hist[len(hist)-maxDirtyHistory+1:]
	}
	out := make([]epochDirty, 0, len(hist)+1)
	out = append(out, hist...)
	return append(out, epochDirty{version: version, rects: rects})
}

// bitset helpers shared by the store and its snapshots.

func bitSet(bits []uint64, i int) bool {
	w := i >> 6
	return w < len(bits) && bits[w]&(1<<(uint(i)&63)) != 0
}

func setBit(bits []uint64, i int)   { bits[i>>6] |= 1 << (uint(i) & 63) }
func clearBit(bits []uint64, i int) { bits[i>>6] &^= 1 << (uint(i) & 63) }
