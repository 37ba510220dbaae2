package server

// HTTP surface of the tile cache: GET /tiles/{z}/{x}/{y} with ETag
// revalidation, GET /cache/stats, the cache-aware /select path, and
// the static- and live-capable GET /store/stats.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/livestore"
	"geosel/internal/sim"
	"geosel/internal/tilecache"
)

func get(t *testing.T, url string, header http.Header) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestTilesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, engine.Config{TileCache: true})
	resp := get(t, ts.URL+"/tiles/2/1/1?k=10", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content type %q", ct)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("missing ETag")
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	d, err := tilecache.DecodeTile(body)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tile.Z != 2 || d.Tile.X != 1 || d.Tile.Y != 1 || d.K != 10 {
		t.Fatalf("decoded tile %+v", d)
	}
	if len(d.Members) == 0 {
		t.Fatal("empty tile selection over the test dataset")
	}

	// Revalidation: the same tile at the same version is a 304.
	cached := get(t, ts.URL+"/tiles/2/1/1?k=10", http.Header{"If-None-Match": {etag}})
	if cached.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match status %d, want 304", cached.StatusCode)
	}
	// A different shape is different content with a different ETag.
	other := get(t, ts.URL+"/tiles/2/1/1?k=5", http.Header{"If-None-Match": {etag}})
	if other.StatusCode != http.StatusOK {
		t.Fatalf("k=5 status %d", other.StatusCode)
	}
	if other.Header.Get("ETag") == etag {
		t.Error("different k produced the same ETag")
	}

	for _, path := range []string{
		"/tiles/2/9/0",     // outside the zoom-2 grid
		"/tiles/-1/0/0",    // negative zoom
		"/tiles/a/0/0",     // non-integer coordinate
		"/tiles/2/0/0?k=0", // non-positive k
		"/tiles/2/0/0?theta=x",
	} {
		if resp := get(t, ts.URL+path, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestTileRevalidationRendersNothing: If-None-Match is honoured in all
// its forms — the tag alone, inside a list, weak, "*" — and a request it
// answers with 304 never renders the payload it would not send.
func TestTileRevalidationRendersNothing(t *testing.T) {
	srv, ts := newTestServer(t, engine.Config{TileCache: true})
	const path = "/tiles/2/1/1?k=10"
	first := get(t, ts.URL+path, nil)
	etag := first.Header.Get("ETag")
	if first.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("status %d, ETag %q", first.StatusCode, etag)
	}
	rendered := srv.cache.Stats().TilePayloads
	if rendered != 1 {
		t.Fatalf("one 200 rendered %d payloads", rendered)
	}
	for _, h := range []http.Header{
		{"If-None-Match": {etag}},
		{"If-None-Match": {`"other", ` + etag + ` , "third"`}},
		{"If-None-Match": {`"other"`, etag}},
		{"If-None-Match": {"W/" + etag}},
		{"If-None-Match": {"*"}},
	} {
		resp := get(t, ts.URL+path, h)
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", h["If-None-Match"], resp.StatusCode)
		}
		if resp.Header.Get("ETag") != etag {
			t.Errorf("If-None-Match %q: 304 carries ETag %q, want %q", h["If-None-Match"], resp.Header.Get("ETag"), etag)
		}
	}
	if got := srv.cache.Stats().TilePayloads; got != rendered {
		t.Errorf("five 304s rendered %d payloads", got-rendered)
	}
	for _, h := range []http.Header{
		{"If-None-Match": {`"other", "third"`}},
		{"If-None-Match": {etag[:len(etag)-2] + `9"`}},
		{"If-None-Match": {""}},
	} {
		if resp := get(t, ts.URL+path, h); resp.StatusCode != http.StatusOK {
			t.Errorf("If-None-Match %q: status %d, want 200", h["If-None-Match"], resp.StatusCode)
		}
	}
}

func TestTileEndpointsDisabledWithoutCache(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{"/tiles/1/0/0", "/cache/stats"} {
		if resp := get(t, ts.URL+path, nil); resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("GET %s: status %d, want 501", path, resp.StatusCode)
		}
	}
}

func TestCacheStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, engine.Config{TileCache: true})
	if resp := get(t, ts.URL+"/tiles/1/0/0", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("tile status %d", resp.StatusCode)
	}
	resp := get(t, ts.URL+"/cache/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st tilecache.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.TileMisses == 0 || st.Entries == 0 || st.Capacity == 0 {
		t.Fatalf("stats did not record the tile compute: %+v", st)
	}
}

func TestSelectServedWarmThroughCache(t *testing.T) {
	_, ts := newTestServer(t, engine.Config{TileCache: true})
	body := map[string]any{
		"region":    map[string]float64{"minX": 0.2, "minY": 0.2, "maxX": 0.45, "maxY": 0.4},
		"k":         15,
		"thetaFrac": 0.003,
	}
	resp1, out1 := post(t, ts.URL+"/select", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first select status %d", resp1.StatusCode)
	}
	resp2, out2 := post(t, ts.URL+"/select", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second select status %d", resp2.StatusCode)
	}
	if !field[bool](t, out2, "warm") || !field[bool](t, out2, "scoreApprox") {
		t.Fatalf("second select not served warm: %v", out2)
	}
	// Same version, same request: the stitched serve is deterministic.
	if string(out1["objects"]) != string(out2["objects"]) {
		t.Fatal("repeat select returned different objects")
	}
	if n := len(field[[]objectJSON](t, out2, "objects")); n == 0 || n > 15 {
		t.Fatalf("warm selection size %d outside (0, 15]", n)
	}
}

func TestStoreStatsOnStaticStore(t *testing.T) {
	ts := testServer(t)
	resp := get(t, ts.URL+"/store/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("static /store/stats status %d, want 200", resp.StatusCode)
	}
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !field[bool](t, out, "static") {
		t.Error("static store not reported as static")
	}
	if v := field[uint64](t, out, "version"); v != 0 {
		t.Errorf("static snapshot version %d, want 0", v)
	}
	if n := field[int](t, out, "live"); n != 5000 {
		t.Errorf("live objects %d, want the 5000 test objects", n)
	}
	if up := field[float64](t, out, "uptimeSeconds"); up < 0 {
		t.Errorf("negative uptime %v", up)
	}
}

// TestStoreStatsAfterCompactingIngest: one /ingest batch that updates
// every object leaves every original slot dead, so the commit compacts;
// /store/stats reports the compaction and the memory it left — no dead
// slots, half again the live count in capacity — and the server keeps
// selecting over the renumbered store.
func TestStoreStatsAfterCompactingIngest(t *testing.T) {
	const n = 400
	col, err := dataset.Generate(dataset.POISpec(n, 3))
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

	stats := func() map[string]json.RawMessage {
		t.Helper()
		resp := get(t, ts.URL+"/store/stats", nil)
		defer resp.Body.Close()
		var out map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := stats()
	if c, k := field[int](t, before, "capacity"), field[uint64](t, before, "compactions"); c != n || k != 0 {
		t.Fatalf("fresh store: capacity %d, compactions %d; want %d and 0", c, k, n)
	}

	var body strings.Builder
	body.WriteString(`{"mutations":[`)
	for i, o := range col.Objects {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"op":"update","id":%d,"x":%g,"y":%g,"weight":0.5,"text":"moved"}`, o.ID, o.Loc.Y, o.Loc.X)
	}
	body.WriteString(`]}`)
	resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	after := stats()
	if k := field[uint64](t, after, "compactions"); k != 1 {
		t.Fatalf("compactions %d after an ingest that superseded every slot, want 1", k)
	}
	if l, sl, d := field[int](t, after, "live"), field[int](t, after, "slots"), field[int](t, after, "deadSlots"); l != n || sl != n || d != 0 {
		t.Fatalf("after compaction: live %d, slots %d, dead %d; want %d, %d, 0", l, sl, d, n, n)
	}
	if c := field[int](t, after, "capacity"); c != n+n/2 {
		t.Fatalf("capacity %d after compaction, want %d", c, n+n/2)
	}
	sel, err := http.Post(ts.URL+"/select", "application/json",
		strings.NewReader(`{"region":{"minX":0.2,"minY":0.2,"maxX":0.8,"maxY":0.8},"k":8,"thetaFrac":0.003}`))
	if err != nil {
		t.Fatal(err)
	}
	sel.Body.Close()
	if sel.StatusCode != http.StatusOK {
		t.Fatalf("select after compaction: status %d", sel.StatusCode)
	}
}
