package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/livestore"
	"geosel/internal/sim"
)

// fuzzRoutes are the POST routes whose JSON bodies FuzzRequestBodies
// feeds; the fuzzer picks one by index. Session routes address the
// session every iteration creates and starts first.
var fuzzRoutes = []string{
	"/select",
	"/sessions",
	"/sessions/1/start",
	"/sessions/1/zoomin",
	"/sessions/1/zoomout",
	"/sessions/1/pan",
	"/sessions/1/prefetch",
	"/ingest",
}

const (
	fuzzSelectBody  = `{"region":{"minX":0.3,"minY":0.3,"maxX":0.7,"maxY":0.7},"k":8,"thetaFrac":0.003}`
	fuzzSessionBody = `{"k":8,"thetaFrac":0.003}`
	fuzzStartBody   = `{"region":{"minX":0.3,"minY":0.3,"maxX":0.7,"maxY":0.7}}`
)

// fuzzServer builds a small live, tile-cached server with one started
// session, fresh for every input so no input depends on another.
func fuzzServer(t *testing.T) *Server {
	t.Helper()
	col, err := dataset.Generate(dataset.POISpec(400, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Metric: sim.Cosine{}, TileCache: true, TileCacheCapacity: 64}
	live, err := livestore.New(col, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(live, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct{ path, body string }{{"/sessions", fuzzSessionBody}, {"/sessions/1/start", fuzzStartBody}} {
		if rec := serveBody(s.Handler(), step.path, []byte(step.body)); rec.Code >= 300 {
			t.Fatalf("%s: %d %s", step.path, rec.Code, rec.Body)
		}
	}
	return s
}

func serveBody(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// FuzzRequestBodies drives every JSON request decoder through the real
// handlers: whatever the body, the server must not panic, must not
// answer 5xx, and must answer JSON on every response that has a body —
// and must still serve a plain /select afterwards.
func FuzzRequestBodies(f *testing.F) {
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, fuzzSelectBody},
		{1, fuzzSessionBody},
		{2, fuzzStartBody},
		{3, `{"region":{"minX":0.4,"minY":0.4,"maxX":0.6,"maxY":0.6}}`},
		{4, `{"region":{"minX":0.2,"minY":0.2,"maxX":0.8,"maxY":0.8}}`},
		{5, `{"dx":0.05,"dy":-0.02}`},
		{6, `{"ops":["zoomin","zoomout","pan"]}`},
		{7, `{"mutations":[{"op":"insert","id":900001,"x":0.5,"y":0.5,"weight":1,"text":"cafe bar"},{"op":"update","id":5,"x":0.45,"y":0.55,"weight":2},{"op":"delete","id":3}]}`},
		{0, `{"region":{"minX":-1e300,"minY":-1e300,"maxX":1e300,"maxY":1e300},"k":4096,"thetaFrac":1e300}`},
		{7, `{"mutations":[{"op":"insert","id":-1,"x":1e308,"y":-1e308,"weight":-1}]}`},
	} {
		f.Add(seed.route, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		s := fuzzServer(t)
		defer s.Close()
		h := s.Handler()
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		checkFuzzResponse(t, path, serveBody(h, path, body))
		rec := serveBody(h, "/select", []byte(fuzzSelectBody))
		if rec.Code != http.StatusOK {
			t.Fatalf("after %s: /select answered %d %s", path, rec.Code, rec.Body)
		}
	})
}

func checkFuzzResponse(t *testing.T, path string, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code >= 500 {
		t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
	}
	if rec.Code != http.StatusNoContent && !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("%s: %d with a body that is not JSON: %q", path, rec.Code, rec.Body)
	}
}
