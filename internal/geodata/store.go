package geodata

import (
	"fmt"

	"geosel/internal/geo"
	"geosel/internal/rtree"
)

// Store pairs a Collection with an R-tree over object locations and
// serves the region queries that feed the selection algorithms ("for all
// methods, we use R-tree as the spatial index for region queries",
// Section 7.1). The store indexes collection positions, not Object.IDs.
type Store struct {
	col  *Collection
	tree *rtree.Tree
}

// NewStore bulk-loads an R-tree over the collection. The collection must
// not grow afterwards; build a new store if it does.
func NewStore(col *Collection) (*Store, error) {
	if col == nil {
		return nil, fmt.Errorf("geodata: nil collection")
	}
	if err := col.Validate(); err != nil {
		return nil, err
	}
	items := make([]rtree.Item, len(col.Objects))
	for i, o := range col.Objects {
		items[i] = rtree.PointItem(i, o.Loc)
	}
	return &Store{col: col, tree: rtree.BulkLoad(items)}, nil
}

// Collection returns the underlying collection.
func (s *Store) Collection() *Collection { return s.col }

// Len reports the number of indexed objects.
func (s *Store) Len() int { return s.tree.Len() }

// Region returns the indices of all objects inside r, in ascending
// order (SortPositions) like every View.
func (s *Store) Region(r geo.Rect) []int {
	var out []int
	s.tree.Search(r, func(it rtree.Item) bool {
		out = append(out, it.ID)
		return true
	})
	SortPositions(out)
	return out
}

// CountRegion returns the number of objects inside r without
// materializing the index list.
func (s *Store) CountRegion(r geo.Rect) int {
	n := 0
	s.tree.Search(r, func(rtree.Item) bool {
		n++
		return true
	})
	return n
}

// Nearest returns the index of the object closest to p; ok is false for
// an empty store.
func (s *Store) Nearest(p geo.Point) (int, bool) {
	n, ok := s.tree.NearestOne(p)
	if !ok {
		return 0, false
	}
	return n.Item.ID, true
}

// Bounds returns the bounding rectangle of the indexed objects; ok is
// false for an empty store.
func (s *Store) Bounds() (geo.Rect, bool) { return s.tree.Bounds() }

// Snapshot implements Source: a static store is its own, forever-current
// view at version 0. Layers written against Source therefore serve
// static datasets with zero overhead and no behaviour change.
func (s *Store) Snapshot() (View, uint64) { return s, 0 }
