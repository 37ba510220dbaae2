package isos

import (
	"context"
	"testing"

	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// countingSource hands out views of src that count their Region calls.
type countingSource struct {
	src     geodata.Source
	regions int
}

func (c *countingSource) Snapshot() (geodata.View, uint64) {
	v, ver := c.src.Snapshot()
	return countingView{View: v, regions: &c.regions}, ver
}

type countingView struct {
	geodata.View
	regions *int
}

func (v countingView) Region(r geo.Rect) []int {
	*v.regions++
	return v.View.Region(r)
}

// TestNavigationFetchesRegionOnce pins the region fetches of a cold
// session: Start and every navigation step query the new region once,
// and the step's derivation and selection share that one answer.
func TestNavigationFetchesRegionOnce(t *testing.T) {
	src := &countingSource{src: testStore(t, 3000, 4)}
	s, err := NewSession(src, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	steps := []struct {
		name string
		run  func() (*Selection, error)
	}{
		{"start", func() (*Selection, error) { return s.Start(ctx, geo.RectAround(geo.Pt(0.5, 0.5), 0.3)) }},
		{"zoom-in", func() (*Selection, error) { return s.ZoomIn(ctx, geo.RectAround(geo.Pt(0.5, 0.5), 0.15)) }},
		{"pan", func() (*Selection, error) { return s.Pan(ctx, geo.Pt(0.05, 0.02)) }},
		{"zoom-out", func() (*Selection, error) { return s.ZoomOut(ctx, geo.RectAround(geo.Pt(0.55, 0.52), 0.3)) }},
	}
	for _, st := range steps {
		src.regions = 0
		sel, err := st.run()
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if len(sel.Positions) == 0 {
			t.Fatalf("%s selected nothing", st.name)
		}
		if src.regions != 1 {
			t.Errorf("%s fetched its region %d times, want 1", st.name, src.regions)
		}
	}
}
