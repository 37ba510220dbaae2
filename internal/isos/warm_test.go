package isos

// Warmer integration: a session configured with the tile cache serves
// navigations warm while honoring exactly the same D/G consistency
// contract CheckTransition enforces on the ordinary path.

import (
	"context"
	"testing"

	"geosel/internal/core"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/tilecache"
)

func TestSessionWarmNavigationConsistency(t *testing.T) {
	store := testStore(t, 4000, 9)
	cfg := testConfig(t)
	cfg.ThetaFrac = 0.003 // keep seam conflicts inside the repair budget
	cache, err := tilecache.New(cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Warmer = cache
	s, err := NewSession(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.15)
	start, err := s.Start(ctx, region)
	if err != nil {
		t.Fatal(err)
	}
	objs := store.Collection().Objects
	if !core.SatisfiesVisibility(objs, start.Positions, s.theta(region)) {
		t.Fatal("start selection violates θ-separation")
	}

	oldVisible := s.Visible()
	inner := geo.RectAround(geo.Pt(0.5, 0.5), 0.08)
	sel, err := s.ZoomIn(ctx, inner)
	if err != nil {
		t.Fatal(err)
	}
	// Warm or not, the transition contract must hold; a warm serve that
	// broke D/G would fail here.
	if err := CheckTransition(geo.OpZoomIn, region, inner, oldVisible, sel.Positions, locOf(store)); err != nil {
		t.Fatal(err)
	}
	if !core.SatisfiesVisibility(objs, sel.Positions, s.theta(inner)) {
		t.Fatal("zoom-in selection violates θ-separation")
	}

	// At least one navigation in a repeated walk must come out warm,
	// or the hook is dead code. The start visits warmed the tiles, so
	// re-walking the same viewports hits the cache.
	warm := start.Warm || sel.Warm
	for i := 0; i < 3 && !warm; i++ {
		outer := geo.RectAround(geo.Pt(0.5, 0.5), 0.15)
		selOut, err := s.ZoomOut(ctx, outer)
		if err != nil {
			t.Fatal(err)
		}
		warm = selOut.Warm
		selIn, err := s.ZoomIn(ctx, inner)
		if err != nil {
			t.Fatal(err)
		}
		warm = warm || selIn.Warm
	}
	if !warm {
		t.Error("no navigation was served warm; the Warmer hook never fired")
	}
	if st := cache.Stats(); st.WarmNavigations == 0 {
		t.Errorf("cache recorded no warm navigations: %+v", st)
	}
}

// decliningWarmer always says no — the hook's worst case.
type decliningWarmer struct{ calls int }

func (d *decliningWarmer) WarmNavigate(context.Context, geodata.View, uint64, geo.Rect, int, float64, []int, []int) ([]int, float64, int, bool) {
	d.calls++
	return nil, 0, 0, false
}

// TestSessionWarmDeclineFallsThrough proves declining is safe: a
// Warmer that rejects every navigation leaves the session on its
// ordinary selection path with full consistency.
func TestSessionWarmDeclineFallsThrough(t *testing.T) {
	store := testStore(t, 2000, 10)
	cfg := testConfig(t)
	warmer := &decliningWarmer{}
	cfg.Warmer = warmer
	s, err := NewSession(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.2)
	sel, err := s.Start(ctx, region)
	if err != nil {
		t.Fatal(err)
	}
	if warmer.calls == 0 {
		t.Fatal("the Warmer hook was never consulted")
	}
	if sel.Warm {
		t.Fatal("a declined navigation must not be marked warm")
	}
	if len(sel.Positions) == 0 {
		t.Fatal("declined warm serve left no selection")
	}
	if !core.SatisfiesVisibility(store.Collection().Objects, sel.Positions, s.theta(region)) {
		t.Fatal("fallthrough selection violates θ-separation")
	}
}
