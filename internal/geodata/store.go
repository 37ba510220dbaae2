package geodata

import (
	"fmt"

	"geosel/internal/geo"
)

// Store pairs a Collection with the grid (grid.go) over every object's
// location and serves the region queries that feed the selection
// algorithms. It is the same index the live store serves from, built
// the same way as a live store's version 0, so a Store and a live
// snapshot over one collection answer every region alike. The store
// indexes collection positions, not Object.IDs.
type Store struct {
	col      *Collection
	grid     *Grid
	bounds   geo.Rect
	boundsOK bool
}

// NewStore builds the grid over the collection. The collection must
// not grow afterwards; build a new store if it does.
func NewStore(col *Collection) (*Store, error) {
	if col == nil {
		return nil, fmt.Errorf("geodata: nil collection")
	}
	if err := col.Validate(); err != nil {
		return nil, err
	}
	s := &Store{col: col, grid: NewGrid(col.Objects)}
	s.bounds, s.boundsOK = col.Bounds()
	return s, nil
}

// Collection returns the underlying collection.
func (s *Store) Collection() *Collection { return s.col }

// Len reports the number of indexed objects.
func (s *Store) Len() int { return len(s.col.Objects) }

// Region returns the indices of all objects inside r, in ascending
// order (SortPositions) like every View.
func (s *Store) Region(r geo.Rect) []int {
	return s.grid.Region(s.col.Objects, r)
}

// CountRegion returns the number of objects inside r without
// materializing the index list.
func (s *Store) CountRegion(r geo.Rect) int {
	return s.grid.CountRegion(s.col.Objects, r)
}

// Bounds returns the bounding rectangle of the indexed objects; ok is
// false for an empty store.
func (s *Store) Bounds() (geo.Rect, bool) { return s.bounds, s.boundsOK }

// Snapshot implements Source: a static store is its own, forever-current
// view at version 0. Layers written against Source therefore serve
// static datasets with zero overhead and no behaviour change.
func (s *Store) Snapshot() (View, uint64) { return s, 0 }
