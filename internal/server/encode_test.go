package server

// The encode layer's contract is bytes: every selection body is what
// encoding/json writes for the structs below — the wire types the
// handlers used to marshal, kept here as the reference.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"geosel/internal/engine"
	"geosel/internal/geodata"
)

// objectJSON is the wire form of a selected object.
type objectJSON struct {
	ID     int     `json:"id"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Weight float64 `json:"weight"`
	Text   string  `json:"text,omitempty"`
}

// selectionJSON is the wire form of a selection result.
type selectionJSON struct {
	Objects       []objectJSON `json:"objects"`
	Score         float64      `json:"score"`
	RegionObjects int          `json:"regionObjects"`
	Prefetched    bool         `json:"prefetched,omitempty"`
	ResponseMs    float64      `json:"responseMs,omitempty"`
	Warm          bool         `json:"warm,omitempty"`
	ScoreApprox   bool         `json:"scoreApprox,omitempty"`
}

// referenceBody encodes a selection the way the handlers did before the
// append encoder: json.NewEncoder over the wire struct.
func referenceBody(t *testing.T, view geodata.View, positions []int, m selectionMeta) []byte {
	t.Helper()
	objs := view.Collection().Objects
	sel := selectionJSON{
		Objects: make([]objectJSON, 0, len(positions)), Score: m.score, RegionObjects: m.regionObjects,
		Prefetched: m.prefetched, ResponseMs: m.responseMs, Warm: m.warm, ScoreApprox: m.scoreApprox,
	}
	for _, p := range positions {
		o := &objs[p]
		sel.Objects = append(sel.Objects, objectJSON{ID: o.ID, X: o.Loc.X, Y: o.Loc.Y, Weight: o.Weight, Text: o.Text})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(sel); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSelectionBodyMatchesEncodingJSON renders every object of the
// dataset generator the benchmark uses, a hundred to a body, under
// every omitempty combination and a table of awkward scores, and
// compares each body with encoding/json's.
func TestSelectionBodyMatchesEncodingJSON(t *testing.T) {
	view, _ := testStore(t).Snapshot()
	n := view.Collection().Len()
	scores := []float64{0, math.Copysign(0, -1), 0.5, 1, 0.9183422, 1e21, 1e-7, 5e-324, math.MaxFloat64, -3.25}
	combo := 0
	for start := 0; start < n; start += 100 {
		positions := make([]int, 0, 100)
		for p := start; p < start+100 && p < n; p++ {
			positions = append(positions, p)
		}
		if combo%7 == 0 {
			positions = positions[:combo%3] // empty and tiny bodies too
		}
		m := selectionMeta{
			score:         scores[combo%len(scores)],
			regionObjects: start * 37,
			prefetched:    combo&1 != 0,
			warm:          combo&4 != 0,
			scoreApprox:   combo&8 != 0,
		}
		if combo&2 != 0 {
			m.responseMs = []float64{0.001, 12.345, math.Copysign(0, -1), 1e-9}[(combo>>4)%4]
		}
		combo++
		rec := httptest.NewRecorder()
		writePositions(rec, view, positions, m)
		want := referenceBody(t, view, positions, m)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("meta %+v, positions from %d: bodies (%d and %d bytes) differ at byte %d:\n got …%.80s\nwant …%.80s",
				m, start, len(got), len(want), i, got[i:], want[i:])
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, len(want))
		}
	}
	if combo < 32 {
		t.Fatalf("only %d bodies compared; the omitempty combinations were not all reached", combo)
	}
}

// rawPost posts a literal body and returns the response with its body
// read.
func rawPost(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestSelectionRoutesSendContentLength drives every route that answers
// with a selection — /select stitched, fallen back and uncached, the
// four session steps and /back — and checks each sends its body whole:
// Content-Length set and equal to the bytes received, valid JSON, one
// trailing newline.
func TestSelectionRoutesSendContentLength(t *testing.T) {
	const region = `{"minX":0.2,"minY":0.2,"maxX":0.45,"maxY":0.4}`
	const inner = `{"minX":0.25,"minY":0.25,"maxX":0.4,"maxY":0.35}`
	check := func(name string, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
		if len(resp.TransferEncoding) != 0 || resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q, Transfer-Encoding %v for a %d-byte body",
				name, resp.Header.Get("Content-Length"), resp.TransferEncoding, len(body))
		}
		var sel selectionJSON
		if err := json.Unmarshal(body, &sel); err != nil || len(sel.Objects) == 0 {
			t.Errorf("%s: body does not decode to a selection (%v): %s", name, err, body)
		}
		if !bytes.HasSuffix(body, []byte("}\n")) || bytes.HasSuffix(body, []byte("\n\n")) {
			t.Errorf("%s: body does not end in one newline", name)
		}
	}
	for _, cached := range []bool{false, true} {
		_, ts := newTestServer(t, engine.Config{TileCache: cached})
		name := map[bool]string{false: "uncached", true: "cached"}[cached]
		for i := 0; i < 2; i++ { // cold, then (with the cache) stitched warm
			resp, body := rawPost(t, ts.URL+"/select", `{"region":`+region+`,"k":15,"thetaFrac":0.003}`)
			check(name+" /select", resp, body)
			if i == 1 && bytes.Contains(body, []byte(`"warm":true`)) != cached {
				t.Errorf("%s /select: warm flag wrong: %s", name, body)
			}
		}
		// θ of half the viewport blows the repair budget: the fallback path.
		resp, body := rawPost(t, ts.URL+"/select", `{"region":`+region+`,"k":15,"thetaFrac":0.5}`)
		check(name+" /select fallback", resp, body)
		if bytes.Contains(body, []byte(`"warm"`)) {
			t.Errorf("%s: a θ = half the viewport select was served warm: %s", name, body)
		}

		id := createSession(t, ts)
		for _, step := range []struct{ op, body string }{
			{"start", `{"region":` + region + `}`},
			{"pan", `{"dx":0.02,"dy":0.01}`},
			{"zoomin", `{"region":` + inner + `}`},
			{"zoomout", `{"region":` + region + `}`},
			{"back", `{}`},
		} {
			resp, body := rawPost(t, ts.URL+"/sessions/"+id+"/"+step.op, step.body)
			check(name+" "+step.op, resp, body)
		}
	}
}

// TestUnencodableScoreIs500: a score JSON cannot carry used to be a 200
// with an empty body (the header went out before the encoder failed);
// the body is now built first, so it is a 500 that says why.
func TestUnencodableScoreIs500(t *testing.T) {
	view, _ := testStore(t).Snapshot()
	for _, score := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := httptest.NewRecorder()
		writePositions(rec, view, []int{1, 2, 3}, selectionMeta{score: score, regionObjects: 3})
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("score %v: status %d, want 500: %s", score, rec.Code, rec.Body)
		}
		var out map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["error"] == "" {
			t.Fatalf("score %v: 500 without a JSON error body (%v): %q", score, err, rec.Body)
		}
	}
}

// TestBodyWithTrailingDataRejected: one JSON value per body; white
// space may follow it, nothing else.
func TestBodyWithTrailingDataRejected(t *testing.T) {
	_, ts := newTestServer(t, engine.Config{})
	const sel = `{"region":{"minX":0.3,"minY":0.3,"maxX":0.7,"maxY":0.7},"k":8,"thetaFrac":0.003}`
	if resp, body := rawPost(t, ts.URL+"/select", sel+" \n\t "); resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing white space: status %d: %s", resp.StatusCode, body)
	}
	for _, tail := range []string{`{"k":2}`, ` garbage`, `]`, `0`, `null`} {
		if resp, body := rawPost(t, ts.URL+"/select", sel+tail); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body followed by %q: status %d, want 400: %s", tail, resp.StatusCode, body)
		}
	}
}

// TestAppendMetaAllocatesNothing: closing a selection body whose buffer
// has room allocates nothing, with every optional field written.
func TestAppendMetaAllocatesNothing(t *testing.T) {
	m := selectionMeta{score: 0.4375, regionObjects: 1400, prefetched: true, responseMs: 1.25, warm: true, scoreApprox: true}
	dst := make([]byte, 0, 256)
	avg := testing.AllocsPerRun(100, func() {
		var ok bool
		if dst, ok = appendMeta(dst[:0], m); !ok {
			panic("a finite score was refused")
		}
	})
	if avg != 0 {
		t.Fatalf("appendMeta allocates %v per body, want 0", avg)
	}
}
