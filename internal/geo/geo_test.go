package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-1, -1), Pt(2, 3), 5},
		{Pt(0, 0), Pt(0, 2), 2},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.p.Dist2(c.q); !almostEq(got, c.want*c.want, 1e-12) {
			t.Errorf("Dist2(%v,%v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestPointDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointVectorOps(t *testing.T) {
	p := Pt(1, 2)
	if got := p.Add(Pt(3, 4)); got != Pt(4, 6) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(Pt(3, 4)); got != Pt(-2, -2) {
		t.Errorf("Sub = %v", got)
	}
}

func TestRectAround(t *testing.T) {
	r := RectAround(Pt(5, 5), 2)
	if r.Min != Pt(3, 3) || r.Max != Pt(7, 7) {
		t.Errorf("RectAround = %v", r)
	}
	if !almostEq(r.Width()*r.Height(), 16, 1e-12) {
		t.Errorf("area = %v", r.Width()*r.Height())
	}
	if r.Center() != Pt(5, 5) {
		t.Errorf("Center = %v", r.Center())
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(2, 2)}
	for _, p := range []Point{Pt(0, 0), Pt(2, 2), Pt(1, 1), Pt(0, 2)} {
		if !r.Contains(p) {
			t.Errorf("expected %v to contain %v", r, p)
		}
	}
	for _, p := range []Point{Pt(-0.001, 0), Pt(2.001, 2), Pt(1, 3)} {
		if r.Contains(p) {
			t.Errorf("expected %v to exclude %v", r, p)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{Min: Pt(0, 0), Max: Pt(2, 2)}
	b := Rect{Min: Pt(1, 1), Max: Pt(3, 3)}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("expected intersection")
	}
	got, ok := a.Intersect(b)
	if !ok || got != (Rect{Min: Pt(1, 1), Max: Pt(2, 2)}) {
		t.Errorf("Intersect = %v, %v", got, ok)
	}
	c := Rect{Min: Pt(5, 5), Max: Pt(6, 6)}
	if a.Intersects(c) {
		t.Error("expected no intersection with far rect")
	}
	if _, ok := a.Intersect(c); ok {
		t.Error("Intersect should report no overlap")
	}
	// Touching edges count as intersecting.
	d := Rect{Min: Pt(2, 0), Max: Pt(3, 2)}
	if !a.Intersects(d) {
		t.Error("touching rects should intersect")
	}
}

// spanning returns the smallest Rect containing both p and q.
func spanning(p, q Point) Rect {
	return Rect{
		Min: Pt(math.Min(p.X, q.X), math.Min(p.Y, q.Y)),
		Max: Pt(math.Max(p.X, q.X), math.Max(p.Y, q.Y)),
	}
}

func TestRectUnionProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		r := spanning(Pt(ax, ay), Pt(bx, by))
		s := spanning(Pt(cx, cy), Pt(dx, dy))
		u := r.Union(s)
		return u.ContainsRect(r) && u.ContainsRect(s) && u.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectIntersectInsideBoth(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		r := spanning(Pt(ax, ay), Pt(bx, by))
		s := spanning(Pt(cx, cy), Pt(dx, dy))
		i, ok := r.Intersect(s)
		if !ok {
			return !r.Intersects(s)
		}
		return r.ContainsRect(i) && s.ContainsRect(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScaleAroundCenter(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(4, 4)}
	half := r.ScaleAroundCenter(0.5)
	if half != (Rect{Min: Pt(1, 1), Max: Pt(3, 3)}) {
		t.Errorf("ScaleAroundCenter(0.5) = %v", half)
	}
	double := r.ScaleAroundCenter(2)
	if double != (Rect{Min: Pt(-2, -2), Max: Pt(6, 6)}) {
		t.Errorf("ScaleAroundCenter(2) = %v", double)
	}
	if c := double.Center(); c != r.Center() {
		t.Errorf("center moved: %v", c)
	}
}

func TestExpandTranslate(t *testing.T) {
	r := Rect{Min: Pt(1, 1), Max: Pt(2, 2)}
	e := r.Expand(0.5)
	if e != (Rect{Min: Pt(0.5, 0.5), Max: Pt(2.5, 2.5)}) {
		t.Errorf("Expand = %v", e)
	}
	tr := r.Translate(Pt(1, -1))
	if tr != (Rect{Min: Pt(2, 0), Max: Pt(3, 1)}) {
		t.Errorf("Translate = %v", tr)
	}
}

func TestViewportZoomIn(t *testing.T) {
	v := NewViewport(Rect{Min: Pt(0, 0), Max: Pt(0.5, 0.5)})
	if !almostEq(v.Level, 1, 1e-9) {
		t.Fatalf("level = %v, want 1", v.Level)
	}
	inner := Rect{Min: Pt(0.1, 0.1), Max: Pt(0.35, 0.35)}
	nv, err := v.ZoomIn(inner)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(nv.Level, 2, 1e-9) {
		t.Errorf("zoomed level = %v, want 2", nv.Level)
	}
	if _, err := v.ZoomIn(Rect{Min: Pt(0.4, 0.4), Max: Pt(0.9, 0.9)}); err == nil {
		t.Error("expected error zooming to region outside viewport")
	}
	if _, err := v.ZoomIn(Rect{Min: Pt(0.2, 0.2), Max: Pt(0.2, 0.2)}); err == nil {
		t.Error("expected error zooming to degenerate region")
	}
}

// TestViewportLevelIsAFunctionOfSide pins the level to the region's
// side against the unit square, whatever navigation led to the region:
// a zoom-in that narrows a square to a half-width strip keeps Side(),
// so it keeps the level.
func TestViewportLevelIsAFunctionOfSide(t *testing.T) {
	for _, tc := range []struct {
		r    Rect
		want float64
	}{
		{WorldUnit, 0},
		{Rect{Min: Pt(0.25, 0.5), Max: Pt(0.5, 0.625)}, 2}, // width 1/4, height 1/8
		{Rect{Min: Pt(0.25, 0.5), Max: Pt(0.375, 1)}, 1},   // width 1/8, height 1/2
		{Rect{Min: Pt(-1, -1), Max: Pt(1, 1)}, -1},         // twice the unit square
		{Rect{Min: Pt(0.5, 0.5), Max: Pt(0.5, 0.5)}, 0},    // degenerate
		{Rect{Min: Pt(0, 0), Max: Pt(0.3, 0.2)}, -math.Log2(0.3)},
	} {
		if got := NewViewport(tc.r).Level; got != tc.want {
			t.Errorf("NewViewport(%v).Level = %v, want %v", tc.r, got, tc.want)
		}
	}

	v := NewViewport(WorldUnit)
	strip := Rect{Min: Pt(0, 0), Max: Pt(0.5, 1)}
	in, err := v.ZoomIn(strip)
	if err != nil {
		t.Fatal(err)
	}
	if in.Level != 0 {
		t.Errorf("zoom-in to a strip of the same side moved the level to %v", in.Level)
	}
	in, err = in.ZoomIn(Rect{Min: Pt(0, 0.5), Max: Pt(0.5, 0.75)})
	if err != nil {
		t.Fatal(err)
	}
	if in.Level != 1 {
		t.Errorf("zoom-in to side 1/2 gave level %v, want 1", in.Level)
	}
	out, err := in.ZoomOut(WorldUnit)
	if err != nil {
		t.Fatal(err)
	}
	if out.Level != 0 {
		t.Errorf("zoom-out to the unit square gave level %v, want 0", out.Level)
	}
}

func TestViewportZoomOut(t *testing.T) {
	v := NewViewport(Rect{Min: Pt(0.25, 0.25), Max: Pt(0.5, 0.5)})
	outer := Rect{Min: Pt(0, 0), Max: Pt(1, 1)}
	nv, err := v.ZoomOut(outer)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(nv.Level, 0, 1e-9) {
		t.Errorf("level = %v, want 0", nv.Level)
	}
	if _, err := v.ZoomOut(Rect{Min: Pt(0.3, 0.3), Max: Pt(0.6, 0.6)}); err == nil {
		t.Error("expected error when outer does not contain region")
	}
}

func TestViewportPan(t *testing.T) {
	v := NewViewport(Rect{Min: Pt(0.2, 0.2), Max: Pt(0.4, 0.4)})
	nv, err := v.Pan(Pt(0.1, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Pan keeps the side up to the rounding of the translated corners,
	// and with it the level.
	if !almostEq(nv.Level, v.Level, 1e-12) || nv.Level != NewViewport(nv.Region).Level {
		t.Errorf("pan changed level: %v -> %v", v.Level, nv.Level)
	}
	want := Rect{Min: Pt(0.3, 0.2), Max: Pt(0.5, 0.4)}
	if !almostEq(nv.Region.Min.X, want.Min.X, 1e-12) || !almostEq(nv.Region.Max.X, want.Max.X, 1e-12) ||
		!almostEq(nv.Region.Min.Y, want.Min.Y, 1e-12) || !almostEq(nv.Region.Max.Y, want.Max.Y, 1e-12) {
		t.Errorf("pan region = %v", nv.Region)
	}
	if _, err := v.Pan(Pt(10, 10)); err == nil {
		t.Error("expected error for non-overlapping pan")
	}
}

func TestPanEnvelope(t *testing.T) {
	v := Viewport{Region: Rect{Min: Pt(1, 1), Max: Pt(2, 2)}}
	env := v.PanEnvelope()
	want := Rect{Min: Pt(0, 0), Max: Pt(3, 3)}
	if env != want {
		t.Errorf("PanEnvelope = %v, want %v", env, want)
	}
	// Every overlapping pan target must be inside the envelope.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		d := Pt(rng.Float64()*2-1, rng.Float64()*2-1)
		nv, err := v.Pan(d)
		if err != nil {
			continue
		}
		if !env.ContainsRect(nv.Region) {
			t.Fatalf("pan target %v escapes envelope %v", nv.Region, env)
		}
	}
}

func TestZoomOutEnvelope(t *testing.T) {
	v := Viewport{Region: Rect{Min: Pt(0.4, 0.4), Max: Pt(0.6, 0.6)}}
	env := v.ZoomOutEnvelope(2)
	// Any containing region of scale <= 2 stays inside env.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		scale := 1 + rng.Float64()
		w := v.Region.Width() * scale
		// place the outer region so it still contains v.Region
		ox := v.Region.Min.X - rng.Float64()*(w-v.Region.Width())
		oy := v.Region.Min.Y - rng.Float64()*(w-v.Region.Height())
		outer := Rect{Min: Pt(ox, oy), Max: Pt(ox+w, oy+w)}
		if !outer.ContainsRect(v.Region) {
			t.Fatalf("test bug: outer %v does not contain %v", outer, v.Region)
		}
		if !env.ContainsRect(outer) {
			t.Fatalf("zoom-out region %v escapes envelope %v", outer, env)
		}
	}
	if got := v.ZoomOutEnvelope(0.5); got != v.ZoomOutEnvelope(1) {
		t.Error("maxScale < 1 should clamp to 1")
	}
}

// TestMercatorKnownValues holds the projection to fixed points and to
// the textbook form y = 1/2 + ln(tan(π/4 + φ/2)) / 2π of Web Mercator.
func TestMercatorKnownValues(t *testing.T) {
	for _, c := range []struct {
		ll   LonLat
		want Point
	}{
		{LonLat{Lon: 0, Lat: 0}, Pt(0.5, 0.5)},
		{LonLat{Lon: -180, Lat: 0}, Pt(0, 0.5)},
		{LonLat{Lon: 180, Lat: 0}, Pt(1, 0.5)},
		{LonLat{Lon: 90, Lat: 45}, Pt(0.75, 0.640274963084795)},
		{LonLat{Lon: -90, Lat: -45}, Pt(0.25, 0.35972503691520497)},
		{LonLat{Lon: 0, Lat: maxMercatorLat}, Pt(0.5, 1)},
	} {
		if got := Mercator(c.ll); !almostEq(got.X, c.want.X, 1e-12) || !almostEq(got.Y, c.want.Y, 1e-9) {
			t.Errorf("Mercator(%v) = %v, want %v", c.ll, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		ll := LonLat{Lon: rng.Float64()*360 - 180, Lat: rng.Float64()*160 - 80}
		p := Mercator(ll)
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Fatalf("Mercator(%v) = %v outside unit square", ll, p)
		}
		y := 0.5 + math.Log(math.Tan(math.Pi/4+ll.Lat*math.Pi/360))/(2*math.Pi)
		if !almostEq(p.X, (ll.Lon+180)/360, 1e-12) || !almostEq(p.Y, y, 1e-12) {
			t.Fatalf("Mercator(%v) = %v, want (%v, %v)", ll, p, (ll.Lon+180)/360, y)
		}
	}
}

func TestMercatorClamp(t *testing.T) {
	north := Mercator(LonLat{Lon: 0, Lat: 89.9})
	clamped := Mercator(LonLat{Lon: 0, Lat: maxMercatorLat})
	if north != clamped {
		t.Errorf("latitudes beyond bound should clamp: %v vs %v", north, clamped)
	}
}

func TestOpString(t *testing.T) {
	if OpZoomIn.String() != "zoom-in" || OpZoomOut.String() != "zoom-out" || OpPan.String() != "pan" {
		t.Error("Op.String mismatch")
	}
	if Op(99).String() != "Op(99)" {
		t.Errorf("unknown op = %q", Op(99).String())
	}
}

func TestMercatorMonotone(t *testing.T) {
	// The projection preserves ordering in both axes.
	f := func(lon1, lon2, lat1, lat2 float64) bool {
		clampLon := func(x float64) float64 { return math.Mod(math.Abs(x), 180) }
		clampLat := func(x float64) float64 { return math.Mod(math.Abs(x), 80) }
		a := Mercator(LonLat{Lon: clampLon(lon1), Lat: clampLat(lat1)})
		b := Mercator(LonLat{Lon: clampLon(lon2), Lat: clampLat(lat2)})
		okX := (clampLon(lon1) <= clampLon(lon2)) == (a.X <= b.X)
		okY := (clampLat(lat1) <= clampLat(lat2)) == (a.Y <= b.Y)
		return okX && okY
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestViewportZoomRoundTrip(t *testing.T) {
	// Zooming in and back out to the same region restores the level.
	v := NewViewport(RectAround(Pt(0.5, 0.5), 0.2))
	inner := RectAround(Pt(0.5, 0.5), 0.1)
	in, err := v.ZoomIn(inner)
	if err != nil {
		t.Fatal(err)
	}
	out, err := in.ZoomOut(v.Region)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(out.Level, v.Level, 1e-9) {
		t.Errorf("round trip level %v, want %v", out.Level, v.Level)
	}
	if out.Region != v.Region {
		t.Errorf("round trip region %v, want %v", out.Region, v.Region)
	}
}

func TestPanInverse(t *testing.T) {
	v := NewViewport(RectAround(Pt(0.4, 0.6), 0.15))
	d := Pt(0.05, -0.03)
	moved, err := v.Pan(d)
	if err != nil {
		t.Fatal(err)
	}
	backAgain, err := moved.Pan(Pt(-d.X, -d.Y))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(backAgain.Region.Min.X, v.Region.Min.X, 1e-12) ||
		!almostEq(backAgain.Region.Min.Y, v.Region.Min.Y, 1e-12) {
		t.Errorf("pan inverse region %v, want %v", backAgain.Region, v.Region)
	}
}
