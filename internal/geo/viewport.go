package geo

import (
	"fmt"
	"math"
)

// Op identifies a map navigation operation (Section 3.4 of the paper).
type Op int

// The three navigation operations a user can perform on the map.
const (
	OpZoomIn Op = iota
	OpZoomOut
	OpPan
)

// String implements fmt.Stringer.
func (op Op) String() string {
	switch op {
	case OpZoomIn:
		return "zoom-in"
	case OpZoomOut:
		return "zoom-out"
	case OpPan:
		return "pan"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// Viewport models the region of the map currently displayed to the user
// together with its zoom level. Level increases as the user zooms in;
// levels are not quantized to map-tile powers because the paper supports
// arbitrary granularities (its key difference from precomputation-based
// map thinning).
type Viewport struct {
	Region Rect
	Level  float64 // log2(1 / Region.Side()): 0 for the unit square, larger = finer
}

// NewViewport returns a viewport at the given region. The zoom level is
// a function of the region's side alone, measured against the unit
// square (the tile pyramid's zoom 0); it is 0 for a degenerate region.
func NewViewport(region Rect) Viewport {
	lvl := 0.0
	if side := region.Side(); side > 0 {
		lvl = -math.Log2(side)
	}
	return Viewport{Region: region, Level: lvl}
}

// ZoomIn returns the viewport displaying region inner, which must lie
// inside v.Region (a zoom-in never leaves the old region).
func (v Viewport) ZoomIn(inner Rect) (Viewport, error) {
	if !v.Region.ContainsRect(inner) {
		return Viewport{}, fmt.Errorf("geo: zoom-in target %v not inside current region %v", inner, v.Region)
	}
	if inner.Width() <= 0 || inner.Height() <= 0 {
		return Viewport{}, fmt.Errorf("geo: zoom-in target %v is degenerate", inner)
	}
	return NewViewport(inner), nil
}

// ZoomOut returns the viewport displaying region outer, which must contain
// v.Region.
func (v Viewport) ZoomOut(outer Rect) (Viewport, error) {
	if !outer.ContainsRect(v.Region) {
		return Viewport{}, fmt.Errorf("geo: zoom-out target %v does not contain current region %v", outer, v.Region)
	}
	if outer.Width() <= v.Region.Width()*(1-1e-12) {
		return Viewport{}, fmt.Errorf("geo: zoom-out target narrower than current region")
	}
	return NewViewport(outer), nil
}

// Pan returns the viewport after moving the displayed region by the
// vector d at the same granularity. The paper's panning consistency is
// only defined for overlapping moves; Pan returns an error when the new
// region does not overlap the old one.
func (v Viewport) Pan(d Point) (Viewport, error) {
	nr := v.Region.Translate(d)
	if !nr.Intersects(v.Region) {
		return Viewport{}, fmt.Errorf("geo: pan by %v leaves no overlap with %v", d, v.Region)
	}
	return NewViewport(nr), nil
}

// PanEnvelope returns the union of all possible panned regions that still
// overlap v.Region: the square (for square viewports) with three times the
// side length, centered at the current region (region rA of Figure 5).
func (v Viewport) PanEnvelope() Rect {
	return Rect{
		Min: Point{v.Region.Min.X - v.Region.Width(), v.Region.Min.Y - v.Region.Height()},
		Max: Point{v.Region.Max.X + v.Region.Width(), v.Region.Max.Y + v.Region.Height()},
	}
}

// ZoomOutEnvelope returns the union of all possible zoom-out regions up to
// a side-length scale of maxScale (region rA of Figure 4). Any zoom-out
// target with scale <= maxScale is contained in the returned Rect.
func (v Viewport) ZoomOutEnvelope(maxScale float64) Rect {
	if maxScale < 1 {
		maxScale = 1
	}
	// A zoom-out region of side s*side must contain v.Region, so it can
	// extend at most (s-1)*side beyond it on each axis.
	dx := (maxScale - 1) * v.Region.Width()
	dy := (maxScale - 1) * v.Region.Height()
	return Rect{
		Min: Point{v.Region.Min.X - dx, v.Region.Min.Y - dy},
		Max: Point{v.Region.Max.X + dx, v.Region.Max.Y + dy},
	}
}
