package core

import (
	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// geoBounds returns the bounding rectangle of the objects at the given
// positions; the zero Rect for an empty index list.
func geoBounds(objs []geodata.Object, idx []int) geo.Rect {
	if len(idx) == 0 {
		return geo.Rect{}
	}
	p := objs[idx[0]].Loc
	r := geo.Rect{Min: p, Max: p}
	for _, i := range idx[1:] {
		r = r.Union(geo.Rect{Min: objs[i].Loc, Max: objs[i].Loc})
	}
	return r
}

// resize returns s with length n, reallocated only when its capacity is
// short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
