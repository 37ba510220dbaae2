package livestore

import (
	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// Snapshot is one committed epoch's immutable view of the dataset. It
// implements geodata.View (and geodata.LiveView), so sessions, one-shot
// selections, sampling and prefetch run against it exactly as they do
// against a static geodata.Store — pinned, consistent, and with zero
// locking on the read path.
//
// Position space: a slot is appended per insert (and per update, which
// supersedes the old slot); deletes and updates tombstone the old slot.
// Between two compactions positions are stable: a position pinned at
// version V either refers to the same object at every later version,
// or the object is gone. A compaction epoch (see Store.Apply) renumbers
// the survivors, keeping their relative order, and publishes the
// old → new table; LivePos translates a position pinned at an older
// version through it.
//
// Every version, 0 included, answers its region queries from the
// incrementally maintained geodata.Grid, in ascending position order,
// the order every geodata.View answers in. Because a compaction keeps
// relative order, a region's staged order — and so its selection — is
// the same before and after one.
type Snapshot struct {
	version   uint64
	col       *geodata.Collection
	live      []uint64
	liveCount int
	gr        *geodata.Grid

	// comp is the most recent compaction at or before this version, nil
	// if the store never compacted.
	comp *compaction

	// dirty is the capped per-epoch dirty-rectangle history ending at this
	// snapshot's version, newest last; see DirtyRects. A compaction
	// epoch starts an empty history.
	dirty []epochDirty
}

// Sessions find LivePos by a type check on the view; this keeps a
// signature drift from silently switching their translation off.
var _ geodata.LiveView = (*Snapshot)(nil)

// compaction records one compaction epoch: positions pinned at a
// version in [since, version) translate through remap (old position →
// new, -1 = dead at the compaction); positions pinned before since
// predate the previous compaction and no longer translate at all.
type compaction struct {
	version uint64
	since   uint64
	remap   []int32
}

// epochDirty records one epoch's dirty rectangles: for each grid cell
// its commit rewrote, the bounding box of the locations it removed
// from or added to that cell (geodata.Grid.Commit). The rect slice is
// immutable once published and shared by every later snapshot that
// still retains the epoch.
type epochDirty struct {
	version uint64
	rects   []geo.Rect
}

// maxDirtyHistory caps how many recent epochs of dirty rectangles a
// snapshot retains. Callers asking DirtyRects about an older horizon get
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

// LivePos translates a position pinned at an older (or this) version
// to this snapshot's position space: it returns the position of the
// same object here, or ok = false when the object is gone. Between
// compactions the position is returned unchanged if still live. Across
// the latest compaction it goes through that compaction's table; a
// position pinned before the previous compaction is reported gone, as
// if every object pinned then had died.
func (sn *Snapshot) LivePos(pos int, pinned uint64) (int, bool) {
	if c := sn.comp; c != nil && pinned < c.version {
		if pinned < c.since || pos < 0 || pos >= len(c.remap) {
			return -1, false
		}
		pos = int(c.remap[pos])
	}
	if pos < 0 || pos >= len(sn.col.Objects) || !bitSet(sn.live, pos) {
		return -1, false
	}
	return pos, true
}

// Region returns the positions of all live objects inside r, in
// ascending order.
func (sn *Snapshot) Region(r geo.Rect) []int {
	return sn.gr.Region(sn.col.Objects, r)
}

// CountRegion counts the live objects inside r.
func (sn *Snapshot) CountRegion(r geo.Rect) int {
	return sn.gr.CountRegion(sn.col.Objects, r)
}

// DirtyRects appends to dst the dirty rectangles of the epochs in
// (sinceVersion, sn.Version()] and reports
// whether the snapshot's history actually covers that whole interval.
// ok = false means the history was truncated (the store committed more
// than maxDirtyHistory epochs since sinceVersion, or sinceVersion
// predates the retained horizon) or a compaction epoch lies in the
// interval, which renumbered every position: the caller must then
// assume every region changed. A sinceVersion at or beyond the
// snapshot's own version returns dst unchanged with ok = true — nothing
// happened in an empty interval.
//
// An epoch's rectangles are the bounding boxes, one per grid cell its
// commit rewrote, of the slots it killed (at their old locations) and
// added (at their new ones) in that cell, so a region that meets none
// of them answers the same positions at both ends of the interval. The
// rectangles may overlap; the appended slices alias the snapshot's
// immutable history, so dst's new elements are safe to read from any
// goroutine but the interval union is not deduplicated.
func (sn *Snapshot) DirtyRects(sinceVersion uint64, dst []geo.Rect) ([]geo.Rect, bool) {
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
			dst = append(dst, e.rects...)
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
