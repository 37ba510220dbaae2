package livestore

import (
	"sync"

	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// Snapshot is one committed epoch's immutable view of the dataset. It
// implements geodata.View (and geodata.LiveView), so sessions, one-shot
// selections, sampling and prefetch run against it exactly as they do
// against a static geodata.Store — pinned, consistent, and with zero
// locking on the read path.
//
// Position space: positions are stable across epochs. A slot is
// appended per insert (and per update, which supersedes the old slot)
// and never reused; deletes and updates tombstone the old slot. A
// position pinned at version V therefore either refers to the same
// object at every later version, or LivePos reports false there.
//
// The version-0 snapshot of a freshly built store delegates its region
// queries to the same bulk-loaded R-tree a static geodata.Store uses,
// so with no mutations applied every selection is bitwise-identical to
// the static engine — same positions, same iteration order, same
// floating-point sums. From the first committed epoch on, queries go
// through the incrementally maintained uniform grid, whose Region
// results are sorted ascending (a deterministic order per snapshot).
type Snapshot struct {
	version   uint64
	col       *geodata.Collection
	live      []uint64
	liveCount int

	// Exactly one of base (version 0) and gr (version >= 1) is non-nil.
	base *geodata.Store
	gr   *cowGrid

	// dirty is the capped per-epoch dirty-cell history ending at this
	// snapshot's version, newest last; see DirtyCells.
	dirty []epochDirty

	boundsOnce sync.Once
	boundsRect geo.Rect
	boundsOK   bool
}

// epochDirty records the grid cells one epoch's commit rewrote, as
// world-space rectangles. The rect slice is immutable once published
// and shared by every later snapshot that still retains the epoch.
type epochDirty struct {
	version uint64
	cells   []geo.Rect
}

// maxDirtyHistory caps how many recent epochs of dirty-cell sets a
// snapshot retains. Callers asking DirtyCells about an older horizon get
// ok = false and must treat everything as dirty; the cap keeps snapshot
// publication O(1)-ish and bounds the memory pinned by long chains.
const maxDirtyHistory = 128

// Version returns the snapshot's epoch, monotone across commits.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Collection returns the underlying collection. It is view-owned and
// read-only; its Objects slice may contain tombstoned slots that Region
// never returns, so index it only with positions obtained from this (or
// an older) snapshot.
func (sn *Snapshot) Collection() *geodata.Collection { return sn.col }

// Len reports the number of live objects.
func (sn *Snapshot) Len() int { return sn.liveCount }

// LivePos reports whether the position still refers to a live object in
// this snapshot; positions from older snapshots are valid inputs.
func (sn *Snapshot) LivePos(pos int) bool {
	if pos < 0 || pos >= len(sn.col.Objects) {
		return false
	}
	if sn.base != nil {
		return true // version 0: every slot is live
	}
	return bitSet(sn.live, pos)
}

// Region returns the positions of all live objects inside r.
func (sn *Snapshot) Region(r geo.Rect) []int {
	if sn.base != nil {
		return sn.base.Region(r)
	}
	return sn.gr.region(sn.col.Objects, r, nil)
}

// CountRegion counts the live objects inside r.
func (sn *Snapshot) CountRegion(r geo.Rect) int {
	if sn.base != nil {
		return sn.base.CountRegion(r)
	}
	return sn.gr.countRegion(sn.col.Objects, r)
}

// Nearest returns the position of the live object closest to p; ok is
// false for an empty snapshot.
func (sn *Snapshot) Nearest(p geo.Point) (int, bool) {
	if sn.base != nil {
		return sn.base.Nearest(p)
	}
	return sn.gr.nearest(sn.col.Objects, p)
}

// Bounds returns the exact bounding rectangle of the live objects,
// computed lazily once per snapshot; ok is false when empty.
func (sn *Snapshot) Bounds() (geo.Rect, bool) {
	if sn.base != nil {
		return sn.base.Bounds()
	}
	sn.boundsOnce.Do(func() {
		objs := sn.col.Objects
		first := true
		for i := range objs {
			if !bitSet(sn.live, i) {
				continue
			}
			pr := geo.Rect{Min: objs[i].Loc, Max: objs[i].Loc}
			if first {
				sn.boundsRect, first = pr, false
			} else {
				sn.boundsRect = sn.boundsRect.Union(pr)
			}
		}
		sn.boundsOK = !first
	})
	return sn.boundsRect, sn.boundsOK
}

// DirtyCells appends to dst the world-space rectangles of every grid
// cell dirtied by the epochs in (sinceVersion, sn.Version()] and reports
// whether the snapshot's history actually covers that whole interval.
// ok = false means the history was truncated (the store committed more
// than maxDirtyHistory epochs since sinceVersion, or sinceVersion
// predates the retained horizon): the caller must then assume every
// region changed. A sinceVersion at or beyond the snapshot's own version
// returns dst unchanged with ok = true — nothing happened in an empty
// interval.
//
// Rectangles are cell-granular and may overlap; edge cells extend to an
// effectively unbounded rect on their outer sides because out-of-bounds
// locations clamp into them. The appended slices alias the snapshot's
// immutable history, so dst's new elements are safe to read from any
// goroutine but the interval union is not deduplicated.
func (sn *Snapshot) DirtyCells(sinceVersion uint64, dst []geo.Rect) ([]geo.Rect, bool) {
	if sinceVersion >= sn.version {
		return dst, true
	}
	// Epoch versions in the history are consecutive (no-op batches do
	// not bump the version), so coverage of (sinceVersion, version] just
	// needs the oldest retained epoch to be <= sinceVersion+1.
	if len(sn.dirty) == 0 || sn.dirty[0].version > sinceVersion+1 {
		return dst, false
	}
	for _, e := range sn.dirty {
		if e.version > sinceVersion {
			dst = append(dst, e.cells...)
		}
	}
	return dst, true
}

// frozen pins one snapshot as a Source that never advances — the
// "frozen copy of version V" used by the snapshot-isolation tests and
// handy for serving a consistent view while ingestion continues.
type frozen struct{ sn *Snapshot }

func (f frozen) Snapshot() (geodata.View, uint64) { return f.sn, f.sn.version }

// Freeze returns a Source permanently pinned at the given snapshot.
// Sessions built over it behave exactly like sessions over a static
// store holding version V's data, no matter how far the parent store
// advances concurrently.
func Freeze(sn *Snapshot) geodata.Source { return frozen{sn: sn} }

// RebuildIndex builds the snapshot's spatial index from scratch — the
// full-rebuild cost that incremental epoch commits avoid — and returns
// the number of entries indexed. It exists for tests; the returned
// work is discarded.
func RebuildIndex(sn *Snapshot) int {
	live := sn.live
	if sn.base != nil {
		// Version 0 keeps no bitset; every slot is live.
		live = make([]uint64, (len(sn.col.Objects)+63)/64)
		for i := range sn.col.Objects {
			setBit(live, i)
		}
	}
	g := rebuildGrid(sn.col.Objects, live)
	n := 0
	for _, cell := range g.cells {
		n += len(cell)
	}
	return n
}
