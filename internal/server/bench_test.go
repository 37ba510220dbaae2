package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/livestore"
	"geosel/internal/sim"
)

// discardWriter is a ResponseWriter that keeps the status and counts the
// body, so the benchmark times the handler and not a recorder's buffer.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// BenchmarkWarmSelectHandler is one /select of the end-to-end
// benchmark's viewport_warm workload, in process: the real handler on a
// filled tile cache, k = 100, θ = 0.003·side, over the densest
// 0.034-side viewport of the 100 000-object POI dataset, served from a
// live store as geoselserver -live -tilecache serves it. It is the
// encode layer's number: request decode, stitch, body build, one Write.
func BenchmarkWarmSelectHandler(b *testing.B) {
	col, err := dataset.Generate(dataset.POISpec(100000, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.Config{Metric: sim.Cosine{}, TileCache: true}
	store, err := livestore.New(col, cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(store, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	const side = 0.034
	var region geo.Rect
	most := 0
	for x := 0.0; x+side <= 1; x += side {
		for y := 0.0; y+side <= 1; y += side {
			r := geo.Rect{Min: geo.Pt(x, y), Max: geo.Pt(x+side, y+side)}
			if n := store.Current().CountRegion(r); n > most {
				region, most = r, n
			}
		}
	}
	body := []byte(fmt.Sprintf(`{"region":{"minX":%v,"minY":%v,"maxX":%v,"maxY":%v},"k":100,"thetaFrac":0.003}`,
		region.Min.X, region.Min.Y, region.Max.X, region.Max.Y))
	h := srv.Handler()
	serve := func() *discardWriter {
		w := &discardWriter{h: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/select", bytes.NewReader(body)))
		return w
	}
	serve() // fill the tiles
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/select", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"warm":true`)) {
		b.Fatalf("second select not served warm: status %d: %.200s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var w *discardWriter
	for i := 0; i < b.N; i++ {
		w = serve()
	}
	b.StopTimer()
	if w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
	b.ReportMetric(float64(w.n), "bodyB/op")
}
