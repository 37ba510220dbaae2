package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/livestore"
	"geosel/internal/sim"
)

// TestRequestNumbersRejected drives every route that takes a number
// with values no selection can use — NaN, infinities, negatives, a k
// that would size a multi-gigabyte allocation, corners whose width
// overflows — and expects a prompt 400 each time, then checks the
// server still answers. At k = 8589934592 the parent of this test's
// commit died with "runtime: out of memory". The last rows are bodies
// with data after their one JSON value, on a live store so that /ingest
// reaches its decoder.
func TestRequestNumbersRejected(t *testing.T) {
	col, err := dataset.Generate(dataset.POISpec(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Metric: sim.Cosine{}, TileCache: true}
	live, err := livestore.New(col, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(live, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	id := createSession(t, ts)
	if got := startStatus(t, ts, id); got != http.StatusOK {
		t.Fatalf("start: status %d", got)
	}
	const unit = `{"minX":0.3,"minY":0.3,"maxX":0.7,"maxY":0.7}`
	const flat = `{"minX":0.3,"minY":0.3,"maxX":0.7,"maxY":0.3}`
	const inverted = `{"minX":0.7,"minY":0.7,"maxX":0.3,"maxY":0.3}`
	const overflow = `{"minX":-1e308,"minY":0,"maxX":1e308,"maxY":1}`
	cases := []struct{ method, path, body string }{
		{"POST", "/select", `{"region":` + unit + `,"k":8589934592,"thetaFrac":0.003}`},
		{"POST", "/select", `{"region":` + unit + `,"k":4097,"thetaFrac":0.003}`},
		{"POST", "/select", `{"region":` + unit + `,"k":0,"thetaFrac":0.003}`},
		{"POST", "/select", `{"region":` + unit + `,"k":-3,"thetaFrac":0.003}`},
		{"POST", "/select", `{"region":` + unit + `,"k":8,"thetaFrac":-0.003}`},
		{"POST", "/select", `{"region":` + unit + `,"k":8,"thetaFrac":1e999}`},
		{"POST", "/select", `{"region":` + unit + `,"k":8,"thetaFrac":NaN}`},
		{"POST", "/select", `{"region":` + flat + `,"k":8,"thetaFrac":0.003}`},
		{"POST", "/select", `{"region":` + inverted + `,"k":8,"thetaFrac":0.003}`},
		{"POST", "/select", `{"region":` + overflow + `,"k":8,"thetaFrac":0.003}`},
		{"POST", "/sessions", `{"k":8589934592,"thetaFrac":0.003}`},
		{"POST", "/sessions", `{"k":0,"thetaFrac":0.003}`},
		{"POST", "/sessions", `{"k":8,"thetaFrac":-1}`},
		{"POST", "/sessions/" + id + "/start", `{"region":` + flat + `}`},
		{"POST", "/sessions/" + id + "/start", `{"region":` + overflow + `}`},
		{"POST", "/sessions/" + id + "/zoomin", `{"region":` + inverted + `}`},
		{"POST", "/sessions/" + id + "/zoomout", `{"region":` + overflow + `}`},
		{"POST", "/sessions/" + id + "/pan", `{"dx":1e999,"dy":0}`},
		{"GET", "/tiles/3/2/2?theta=NaN", ""},
		{"GET", "/tiles/3/2/2?theta=Inf", ""},
		{"GET", "/tiles/3/2/2?theta=-0.01", ""},
		{"GET", "/tiles/3/2/2?thetaFrac=NaN", ""},
		{"GET", "/tiles/3/2/2?thetaFrac=-Inf", ""},
		{"GET", "/tiles/3/2/2?k=0", ""},
		{"GET", "/tiles/3/2/2?k=4097", ""},
		{"GET", "/tiles/3/2/2?k=8589934592", ""},
		{"POST", "/select", `{"region":` + unit + `,"k":8,"thetaFrac":0.003}{"k":2}`},
		{"POST", "/select", `{"region":` + unit + `,"k":8,"thetaFrac":0.003} garbage`},
		{"POST", "/sessions", `{"k":8,"thetaFrac":0.003}{"k":9}`},
		{"POST", "/sessions/" + id + "/pan", `{"dx":0.05,"dy":0}]`},
		{"POST", "/ingest", `{"mutations":[]}{"mutations":[]}`},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s %s: %v", c.method, c.path, c.body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s %s: status %d, want 400", c.method, c.path, c.body, resp.StatusCode)
		}
	}
	// The largest k the server admits is served, and the session that
	// was refused four times still navigates.
	resp, out := post(t, ts.URL+"/select", map[string]any{
		"region": map[string]float64{"minX": 0.45, "minY": 0.45, "maxX": 0.55, "maxY": 0.55}, "k": maxK, "thetaFrac": 0.003})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("k = maxK: status %d: %v", resp.StatusCode, out)
	}
	if resp, out := post(t, ts.URL+"/sessions/"+id+"/pan", map[string]any{"dx": 0.05}); resp.StatusCode != http.StatusOK {
		t.Fatalf("pan after the rejected requests: status %d: %v", resp.StatusCode, out)
	}
}

// TestSessionTilesPerSideGone: the tiled-bound knob left the wire, so a
// body that still carries it is an unknown field.
func TestSessionTilesPerSideGone(t *testing.T) {
	ts := testServer(t)
	resp, out := post(t, ts.URL+"/sessions", map[string]any{"k": 5, "thetaFrac": 0.003, "tilesPerSide": 8})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tilesPerSide: status %d: %v", resp.StatusCode, out)
	}
}
