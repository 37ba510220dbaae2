package geodata

import "geosel/internal/geo"

// View is the read interface every selection layer consumes: the static
// Store implements it directly, and internal/livestore publishes one
// immutable View per committed epoch. A View is a consistent picture of
// the dataset — its Region results, Collection positions and Bounds all
// agree with each other — and it never changes after it is obtained, so
// readers need no locking.
//
// Positions returned by Region (and accepted by Collection().Objects
// indexing) are collection positions, exactly as with the static Store,
// and every implementation returns them in ascending order
// (SortPositions): a selection stages a region in that order, so the
// same objects in the same order select the same bits over any View.
// The slice returned by Region is caller-owned; the Collection's Objects
// backing is view-owned and must be treated as read-only (the snapfreeze
// analyzer polices writes through it).
type View interface {
	// Collection returns the underlying collection. Treat it as
	// read-only; for live views its Objects slice may contain dead
	// (tombstoned) slots that Region never returns.
	Collection() *Collection
	// Len reports the number of live indexed objects.
	Len() int
	// Region returns the positions of all live objects inside r, in
	// ascending order.
	Region(r geo.Rect) []int
	// CountRegion counts the live objects inside r.
	CountRegion(r geo.Rect) int
}

// Source yields consistent views of a dataset: every Snapshot call
// returns the latest published View together with its version, a
// monotone counter that increases exactly when the data changes.
// Sessions pin the (View, version) pair per navigation, so one
// navigation — derivation, prefetch-bound lookup and greedy run — is
// always evaluated against one coherent version. The static Store is a
// Source whose version is forever 0.
type Source interface {
	Snapshot() (View, uint64)
}

// LiveView is implemented by views whose position space changes across
// versions: deletes and updates that supersede a slot lose members, and
// a live store's compaction renumbers the survivors. LivePos lets a
// session carry positions pinned at an older version into this one: it
// returns the position of the same object here, or ok = false when the
// object is gone. A view may also report positions pinned too far back
// (for livestore, before its previous compaction) as gone.
type LiveView interface {
	View
	LivePos(pos int, pinned uint64) (int, bool)
}
