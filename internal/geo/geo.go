// Package geo provides the elementary geometric types used throughout the
// library: points, axis-aligned rectangles, and distance helpers. All
// coordinates live in an abstract planar space (the paper normalizes the
// datasets into the unit square; Web-Mercator helpers in mercator.go map
// longitude/latitude into the same space).
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance between p and q. It is the
// preferred form for threshold comparisons because it avoids the square
// root.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by the vector q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right corner; a Rect is valid when Min.X <= Max.X and
// Min.Y <= Max.Y. The zero Rect is the valid degenerate rectangle at the
// origin.
type Rect struct {
	Min, Max Point
}

// RectAround returns the square of side 2*half centered at c.
func RectAround(c Point, half float64) Rect {
	return Rect{
		Min: Point{c.X - half, c.Y - half},
		Max: Point{c.X + half, c.Y + half},
	}
}

// Valid reports whether r.Min is component-wise <= r.Max.
func (r Rect) Valid() bool {
	return r.Min.X <= r.Max.X && r.Min.Y <= r.Max.Y
}

// Width returns the extent of r along the X axis.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent of r along the Y axis.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Side returns the longer of r's width and height: the side length a
// region's visibility threshold θ = ThetaFrac × Side and its tile zoom
// are taken from, whichever entry point serves it.
func (r Rect) Side() float64 {
	side := r.Width()
	if h := r.Height(); h > side {
		side = h
	}
	return side
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (boundaries inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Intersect returns the intersection of r and s. The second result is
// false when the rectangles do not overlap, in which case the returned
// Rect is the zero value.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	return Rect{
		Min: Point{math.Max(r.Min.X, s.Min.X), math.Max(r.Min.Y, s.Min.Y)},
		Max: Point{math.Min(r.Max.X, s.Max.X), math.Min(r.Max.Y, s.Max.Y)},
	}, true
}

// Union returns the smallest Rect containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Expand returns r grown by pad on every side.
func (r Rect) Expand(pad float64) Rect {
	return Rect{
		Min: Point{r.Min.X - pad, r.Min.Y - pad},
		Max: Point{r.Max.X + pad, r.Max.Y + pad},
	}
}

// ScaleAroundCenter returns r scaled by f (in side length) about its
// center. f < 1 shrinks (zoom-in viewport), f > 1 grows (zoom-out).
func (r Rect) ScaleAroundCenter(f float64) Rect {
	c := r.Center()
	hw := r.Width() / 2 * f
	hh := r.Height() / 2 * f
	return Rect{
		Min: Point{c.X - hw, c.Y - hh},
		Max: Point{c.X + hw, c.Y + hh},
	}
}

// Translate returns r moved by the vector d.
func (r Rect) Translate(d Point) Rect {
	return Rect{Min: r.Min.Add(d), Max: r.Max.Add(d)}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%v - %v]", r.Min, r.Max)
}
