package geosel

// End-to-end integration tests across module boundaries: data
// generation → persistence → indexing → selection → interactive
// session → HTTP serving → rendering. Each test exercises a pipeline a
// real deployment would run, not a single package.

import (
	"bytes"
	"context"
	"encoding/json"
	"geosel/internal/engine"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"geosel/internal/baselines"
	"geosel/internal/core"
	"geosel/internal/dataset"
	"geosel/internal/geo"
	"geosel/internal/sampling"
	"geosel/internal/server"
	"geosel/internal/sim"
	"geosel/internal/tilecache"
	"geosel/internal/viz"
)

// TestPipelineGenerateSaveLoadSelect drives the full batch pipeline:
// synthesize a dataset, persist it in all three formats, reload each,
// and verify that selection over the reloaded data matches selection
// over the original exactly.
func TestPipelineGenerateSaveLoadSelect(t *testing.T) {
	col, err := dataset.Generate(dataset.POISpec(3000, 5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	region := RectAround(Pt(0.5, 0.5), 0.25)
	opts := Options{Config: engine.Config{K: 12, ThetaFrac: 0.005, Metric: Cosine()}}

	origStore, err := NewStore(col)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Select(context.Background(), origStore, region, opts)
	if err != nil {
		t.Fatal(err)
	}

	formats := map[string]struct {
		write func(*os.File) error
	}{
		"data.csv":   {func(f *os.File) error { return dataset.WriteCSV(f, col) }},
		"data.jsonl": {func(f *os.File) error { return dataset.WriteJSONL(f, col) }},
		"data.bin":   {func(f *os.File) error { return dataset.WriteBinary(f, col) }},
	}
	for name, fm := range formats {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fm.write(f); err != nil {
			t.Fatal(err)
		}
		f.Close()

		rf, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := dataset.ReadAuto(rf)
		rf.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		store, err := NewStore(loaded)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Select(context.Background(), store, region, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Positions) != len(want.Positions) {
			t.Fatalf("%s: %d picks, want %d", name, len(got.Positions), len(want.Positions))
		}
		for i := range want.Positions {
			if loaded.Objects[got.Positions[i]].ID != col.Objects[want.Positions[i]].ID {
				t.Fatalf("%s: pick %d differs after round trip", name, i)
			}
		}
		if math.Abs(got.Score-want.Score) > 1e-9 {
			t.Fatalf("%s: score %v, want %v", name, got.Score, want.Score)
		}
	}
}

// TestPipelineSessionOverHTTP drives a whole interactive exploration
// through the HTTP layer and cross-checks the displayed pins against a
// direct in-process session with identical inputs.
func TestPipelineSessionOverHTTP(t *testing.T) {
	store, err := dataset.GenerateStore(dataset.POISpec(8000, 6))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(store, engine.Config{Metric: sim.Cosine{}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	direct, err := NewSession(store, SessionConfig{Config: engine.Config{K: 7, ThetaFrac: 0.004, Metric: Cosine()}})
	if err != nil {
		t.Fatal(err)
	}

	postJSON := func(path string, body any) map[string]json.RawMessage {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		var out map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ids := func(raw json.RawMessage) []int {
		t.Helper()
		var objs []struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(raw, &objs); err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(objs))
		for i, o := range objs {
			out[i] = o.ID
		}
		return out
	}
	sameSet := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		m := map[int]bool{}
		for _, x := range a {
			m[x] = true
		}
		for _, x := range b {
			if !m[x] {
				return false
			}
		}
		return true
	}
	directIDs := func(sel *Selection) []int {
		out := make([]int, len(sel.Positions))
		for i, p := range sel.Positions {
			out[i] = store.Collection().Objects[p].ID
		}
		return out
	}

	var sid struct {
		SessionID string `json:"sessionId"`
	}
	raw := postJSON("/sessions", map[string]any{"k": 7, "thetaFrac": 0.004})
	if err := json.Unmarshal(raw["sessionId"], &sid.SessionID); err != nil {
		t.Fatal(err)
	}
	base := "/sessions/" + sid.SessionID

	region := map[string]float64{"minX": 0.3, "minY": 0.3, "maxX": 0.7, "maxY": 0.7}
	httpStart := postJSON(base+"/start", map[string]any{"region": region})
	dsel, err := direct.Start(context.Background(), Rect{Min: Pt(0.3, 0.3), Max: Pt(0.7, 0.7)})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(ids(httpStart["objects"]), directIDs(dsel)) {
		t.Fatal("HTTP and direct sessions disagree after start")
	}

	inner := map[string]float64{"minX": 0.4, "minY": 0.4, "maxX": 0.6, "maxY": 0.6}
	httpZoom := postJSON(base+"/zoomin", map[string]any{"region": inner})
	dzoom, err := direct.ZoomIn(context.Background(), Rect{Min: Pt(0.4, 0.4), Max: Pt(0.6, 0.6)})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(ids(httpZoom["objects"]), directIDs(dzoom)) {
		t.Fatal("HTTP and direct sessions disagree after zoom-in")
	}

	httpBack := postJSON(base+"/back", map[string]any{})
	dback, err := direct.Back()
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(ids(httpBack["objects"]), directIDs(dback)) {
		t.Fatal("HTTP and direct sessions disagree after back")
	}
}

// TestPipelineRenderGallery runs the method gallery end to end: select
// with every baseline, render each panel to SVG, and sanity-check the
// documents.
func TestPipelineRenderGallery(t *testing.T) {
	col, err := dataset.Generate(dataset.UKSpec(2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	objs := col.Objects
	m := sim.EuclideanProximity{MaxDist: 0.5}
	k := 15
	rngSel := baselines.Random(objs, k, 0, newRand(8))
	sels := map[string][]int{
		"Random": rngSel,
		"MaxMin": baselines.MaxMin(objs, k, m),
		"KMeans": baselines.KMeans(objs, k, 20, newRand(9)),
	}
	g := &core.Selector{Config: engine.Config{K: k, Theta: 0.002, Metric: m}, Objects: objs}
	res, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sels["Greedy"] = res.Selected

	region := geo.WorldUnit
	for name, sel := range sels {
		var buf bytes.Buffer
		if err := viz.WriteSVG(&buf, objs, sel, region, viz.SVGOptions{Title: name}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := buf.String()
		if !strings.Contains(s, name) || strings.Count(s, `fill="#d33"`) != len(sel) {
			t.Fatalf("%s: malformed SVG", name)
		}
	}
}

// TestPipelineSamplingAtScale chains generation, indexing and SaSS on a
// larger dataset and verifies the end-to-end guarantees: sample size
// from the Serfling formula, visibility on the full data, score within
// a sane band of the exact greedy.
func TestPipelineSamplingAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large pipeline")
	}
	store, err := dataset.GenerateStore(dataset.UKSpec(60000, 10))
	if err != nil {
		t.Fatal(err)
	}
	region, err := dataset.RandomRegion(store, 0.05, newRand(11))
	if err != nil {
		t.Fatal(err)
	}
	objs := store.Collection().Subset(store.Region(region))
	if len(objs) < 500 {
		t.Skipf("region too sparse (%d objects)", len(objs))
	}
	theta := 0.003 * region.Width()
	sres, err := sampling.Run(context.Background(), objs, sampling.Config{Config: engine.Config{K: 50, Theta: theta, Metric: sim.Cosine{}}, Eps: 0.05, Delta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	wantSize, err := sampling.SerflingSize(len(objs), 0.05, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if sres.SampleSize != wantSize {
		t.Errorf("sample size %d, want %d", sres.SampleSize, wantSize)
	}
	if !core.SatisfiesVisibility(objs, sres.Selected, theta) {
		t.Error("visibility violated on full data")
	}
	full := &core.Selector{Config: engine.Config{K: 50, Theta: theta, Metric: sim.Cosine{}}, Objects: objs}
	fres, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sampledScore := core.Score(objs, sres.Selected, sim.Cosine{}, core.AggMax)
	if sampledScore < fres.Score*0.5 {
		t.Errorf("sampled score %v below half of exact %v", sampledScore, fres.Score)
	}
}

// TestOneSelectionAcrossEntryPoints asks the same question — one
// region, k, θ — at the four doors of the serving stack: POST /select
// on a server without a cache, the tile cache made to fall back, a
// session's Start, and the facade's Select. All four go through
// core.SelectRegion, so they must name the same positions in the same
// order and report the same score, bit for bit.
func TestOneSelectionAcrossEntryPoints(t *testing.T) {
	store, err := dataset.GenerateStore(dataset.POISpec(8000, 6))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Corners exact in binary, so Width, Height and the session's
	// longest side are one number and every door derives the same θ.
	// A θ of a quarter of the side conflicts tiles across their seams
	// beyond the cache's repair budget, so the cache door falls back.
	region := Rect{Min: Pt(0.125, 0.5625), Max: Pt(0.375, 0.8125)}
	const k, thetaFrac = 6, 0.25
	theta := thetaFrac * region.Width()

	want, err := Select(ctx, store, region, Options{Config: engine.Config{K: k, ThetaFrac: thetaFrac, Metric: Cosine()}})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Positions) != k {
		t.Fatalf("facade selected %d objects, want a full k = %d", len(want.Positions), k)
	}
	same := func(door string, positions []int, score float64) {
		t.Helper()
		if !slices.Equal(positions, want.Positions) {
			t.Errorf("%s selected %v, facade %v", door, positions, want.Positions)
		}
		if math.Float64bits(score) != math.Float64bits(want.Score) {
			t.Errorf("%s score %v, facade %v", door, score, want.Score)
		}
	}

	srv, err := server.New(store, engine.Config{Metric: sim.Cosine{}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]any{
		"region": map[string]float64{"minX": region.Min.X, "minY": region.Min.Y, "maxX": region.Max.X, "maxY": region.Max.Y},
		"k":      k, "thetaFrac": thetaFrac,
	})
	resp, err := http.Post(ts.URL+"/select", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served struct {
		Objects []struct{ ID int }
		Score   float64
	}
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /select: status %d, %v", resp.StatusCode, err)
	}
	posOf := make(map[int]int)
	for p, o := range store.Collection().Objects {
		posOf[o.ID] = p
	}
	var servedPos []int
	for _, o := range served.Objects {
		servedPos = append(servedPos, posOf[o.ID])
	}
	same("/select", servedPos, served.Score)

	cache, err := tilecache.New(engine.Config{Metric: sim.Cosine{}})
	if err != nil {
		t.Fatal(err)
	}
	view, version := store.Snapshot()
	cached, err := cache.Select(ctx, view, version, region, k, theta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Fallback {
		t.Fatal("the tile cache stitched the viewport; this test needs its fallback")
	}
	same("tilecache fallback", cached.Positions, cached.Score)

	sess, err := NewSession(store, SessionConfig{Config: engine.Config{K: k, ThetaFrac: thetaFrac, Metric: Cosine()}})
	if err != nil {
		t.Fatal(err)
	}
	started, err := sess.Start(ctx, region)
	if err != nil {
		t.Fatal(err)
	}
	same("session Start", started.Positions, started.Score)
}
