package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"geosel/internal/core"
	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geodata"
	"geosel/internal/isos"
	"geosel/internal/livestore"
	"geosel/internal/server"
	"geosel/internal/tilecache"
)

// The traced run replays one pass of the script in process, outside in:
// once through the server's own handler (span server.handler), and once
// as the explicit sequence of public calls that handler makes into the
// layers, one span per call. Spans are recorded from here, around the
// calls; spans inside the program are a later change. End-to-end
// numbers are never taken with tracing on.

// span is one timed call. Spans of one request share Req; Parent is the
// span that made the call (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Replay  string `json:"replay"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Probe marks a call the handler does not make at this point: it
	// repeats, from outside, a step that is otherwise hidden inside a
	// layer, to size it. Probes are left out of per-request sums.
	Probe bool `json:"probe,omitempty"`
	// Derived marks a span reconstructed from a duration the layer
	// reports about itself rather than timed from outside.
	Derived bool               `json:"derived,omitempty"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// recorder keeps spans in memory; a nil recorder records nothing, which
// is the untraced replay the tracing overhead is measured against.
type recorder struct {
	epoch  time.Time
	replay string
	spans  []span
}

func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Replay: r.replay, Name: name, StartNs: int64(time.Since(r.epoch))})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].EndNs = int64(time.Since(r.epoch))
}

func (r *recorder) attr(id int, key string, v float64) {
	if r == nil {
		return
	}
	s := &r.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// stack is the server's layers assembled in process the way
// cmd/geoselserver assembles them from the same flags.
type stack struct {
	cfg   engine.Config
	src   geodata.Source
	live  *livestore.Store
	cache *tilecache.Cache
	srv   *server.Server
	// Build times of the layers behind setup_s.
	loadMs, indexMs, liveMs float64
}

func newStack(dataPath string, flags []string) (*stack, error) {
	st := &stack{cfg: engine.Config{
		Metric:         metric,
		AsyncPrefetch:  !hasFlag(flags, "-async-prefetch=false"),
		RequestTimeout: 10 * time.Second,
		TileCache:      hasFlag(flags, "-tilecache"),
	}}
	for i, f := range flags {
		if f == "-tilecache-capacity" && i+1 < len(flags) {
			n, err := strconv.Atoi(flags[i+1])
			if err != nil {
				return nil, err
			}
			st.cfg.TileCacheCapacity = n
		}
	}
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	col, err := dataset.ReadAuto(f)
	st.loadMs = msSince(t)
	// Read-only file.
	f.Close() //geolint:errok
	if err != nil {
		return nil, err
	}
	if hasFlag(flags, "-live") {
		t = time.Now()
		if st.live, err = livestore.New(col, st.cfg); err != nil {
			return nil, err
		}
		st.liveMs = msSince(t)
		st.src = st.live
	} else {
		t = time.Now()
		store, err := geodata.NewStore(col)
		if err != nil {
			return nil, err
		}
		st.indexMs = msSince(t)
		st.src = store
	}
	if st.srv, err = server.New(st.src, st.cfg); err != nil {
		return nil, err
	}
	if st.cfg.TileCache {
		if st.cache, err = tilecache.New(st.cfg); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// replayer executes scripted requests one at a time against a stack.
type replayer interface {
	// do executes q as request number req of replay g within the unit
	// state u.
	do(ctx context.Context, rec *recorder, u *unitState, q *request, req, g int) error
}

// unitState is what the requests of one unit share.
type unitState struct {
	sid  string
	sess *isos.Session
}

// lane is one replayer with the recorder its spans go to.
type lane struct {
	rp  replayer
	rec *recorder
}

// replay runs the whole script once, sequentially. With several lanes
// each request is executed on every lane in turn before the next
// request, so that the lanes' spans of one request are taken moments
// apart, on the same state of the machine.
func replay(ctx context.Context, sc *script, g int, lanes ...lane) error {
	req := 0
	for i := range sc.units {
		us := make([]unitState, len(lanes))
		for j := range sc.units[i].reqs {
			req++
			for l := range lanes {
				if err := lanes[l].rp.do(ctx, lanes[l].rec, &us[l], &sc.units[i].reqs[j], req, g); err != nil {
					return fmt.Errorf("in-process %s: %w", sc.units[i].reqs[j].kind, err)
				}
			}
		}
	}
	return nil
}

// handlerReplay sends requests through server.Handler().ServeHTTP.
type handlerReplay struct {
	h     http.Handler
	sc    *script
	etags []string
}

func (hr *handlerReplay) do(_ context.Context, rec *recorder, u *unitState, q *request, req, g int) error {
	path := q.path
	switch {
	case q.kind == opDeleteSession:
		path = "/sessions/" + u.sid
	case q.kind.isNav() || q.kind == opPrefetch:
		path = "/sessions/" + u.sid + q.path
	}
	body := q.body
	if q.kind == opIngest {
		body = hr.sc.ingest.body(q.unit, q.cycle, g)
	}
	r := httptest.NewRequest(q.method, path, bytes.NewReader(body))
	if q.kind == opTile && q.revalidate && hr.etags[q.etagSlot] != "" {
		r.Header.Set("If-None-Match", hr.etags[q.etagSlot])
	}
	w := httptest.NewRecorder()
	id := rec.begin("server.handler", 0, req)
	hr.h.ServeHTTP(w, r)
	rec.end(id)
	rec.attr(id, "bytes", float64(w.Body.Len()))
	if (w.Code < 200 || w.Code > 299) && w.Code != http.StatusNotModified {
		return fmt.Errorf("status %d: %.200s", w.Code, w.Body.Bytes())
	}
	switch {
	case q.kind == opCreateSession:
		var created struct {
			SessionID string `json:"sessionId"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
			return err
		}
		u.sid = created.SessionID
	case q.kind == opTile && w.Code == http.StatusOK:
		hr.etags[q.etagSlot] = w.Header().Get("ETag")
	}
	return nil
}

// layerReplay performs, for each request, the public calls the server's
// handler performs, one span per call under a per-request root span.
type layerReplay struct {
	st *stack
	sc *script
}

func (lr *layerReplay) do(ctx context.Context, rec *recorder, u *unitState, q *request, req, g int) error {
	st := lr.st
	root := rec.begin("request."+q.kind.String(), 0, req)
	defer rec.end(root)
	ctx, cancel := context.WithTimeout(ctx, st.cfg.RequestTimeout)
	defer cancel()
	switch {
	case q.kind == opSelect:
		view, ver := st.src.Snapshot()
		if st.cache != nil {
			id := rec.begin("tilecache.select", root, req)
			res, err := st.cache.Select(ctx, view, ver, q.region, selK, q.theta, nil)
			rec.end(id)
			if err != nil {
				return err
			}
			rec.attr(id, "tiles", float64(res.Tiles))
			rec.attr(id, "misses", float64(res.TileMisses))
			rec.attr(id, "repair_dropped", float64(res.RepairDropped))
			return nil
		}
		pos, objs := lr.fetch(rec, view, q, root, req, false)
		id := rec.begin("core.run", root, req)
		cfg := st.cfg
		cfg.K, cfg.Theta = selK, q.theta
		res, err := (&core.Selector{Config: cfg, Objects: objs}).Run(ctx)
		rec.end(id)
		if err != nil {
			return err
		}
		rec.attr(id, "objs", float64(len(pos)))
		rec.attr(id, "evals", float64(res.Evals))
		rec.attr(id, "rounds", float64(res.Rounds))
		rec.attr(id, "picks", float64(len(res.Selected)))
	case q.kind == opTile:
		view, ver := st.src.Snapshot()
		id := rec.begin("tilecache.tile_payload", root, req)
		_, _, err := st.cache.TilePayload(ctx, view, ver, int(q.tile.Z), int(q.tile.X), int(q.tile.Y), q.theta, selK, nil)
		rec.end(id)
		return err
	case q.kind == opCreateSession:
		cfg := isos.Config{Config: st.cfg}
		cfg.K, cfg.ThetaFrac = selK, selThetaFrac
		if st.cache != nil {
			cfg.Warmer = st.cache
		}
		id := rec.begin("isos.new_session", root, req)
		sess, err := isos.NewSession(st.src, cfg)
		rec.end(id)
		u.sess = sess
		return err
	case q.kind == opDeleteSession:
		u.sess.Close()
	case q.kind == opPrefetch:
		id := rec.begin("prefetch.bounds", root, req)
		err := u.sess.Prefetch(ctx, q.ops...)
		rec.end(id)
		return err
	case q.kind.isNav():
		id := rec.begin("isos.nav", root, req)
		var sel *isos.Selection
		var err error
		switch q.kind {
		case opStart:
			sel, err = u.sess.Start(ctx, q.region)
		case opPan:
			sel, err = u.sess.Pan(ctx, q.delta)
		case opZoomIn:
			sel, err = u.sess.ZoomIn(ctx, q.region)
		default:
			sel, err = u.sess.ZoomOut(ctx, q.region)
		}
		rec.end(id)
		if err != nil {
			return err
		}
		rec.attr(id, "forced", float64(sel.ForcedCount))
		rec.attr(id, "candidates", float64(sel.CandidateCount))
		rec.attr(id, "evals", float64(sel.Evals))
		rec.attr(id, "objs", float64(sel.RegionObjects))
		rec.attr(id, "prefetched", b2f(sel.Prefetched))
		rec.attr(id, "warm", b2f(sel.Warm))
		if rec != nil && !sel.Warm {
			// The session reports the time of its greedy run; place
			// it at the end of the navigation, where it happens.
			nav := rec.spans[id-1]
			rec.spans = append(rec.spans, span{
				ID: len(rec.spans) + 1, Parent: id, Req: req, Replay: rec.replay, Name: "core.run",
				StartNs: nav.EndNs - int64(sel.Elapsed), EndNs: nav.EndNs, Derived: true,
				Attrs: map[string]float64{"evals": float64(sel.Evals), "objs": float64(sel.RegionObjects), "picks": float64(len(sel.Positions) - sel.ForcedCount)},
			})
		}
		// The region fetch and object staging happen inside the
		// session; repeat them from outside to size them.
		view, _ := u.sess.View()
		lr.fetch(rec, view, q, root, req, true)
	case q.kind == opIngest:
		before := st.live.Stats().IndexCommitNs
		id := rec.begin("livestore.apply", root, req)
		_, _, err := st.live.Apply(ctx, lr.sc.ingest.batch(q.unit, q.cycle, g))
		rec.end(id)
		if err != nil {
			return err
		}
		rec.attr(id, "index_commit_ms", float64(st.live.Stats().IndexCommitNs-before)/1e6)
		// Size a region query on the store as the write left it.
		view, _ := st.src.Snapshot()
		id = rec.begin("livestore.region", root, req)
		n := view.CountRegion(lr.sc.window)
		rec.end(id)
		if rec != nil {
			rec.spans[id-1].Probe = true
			rec.attr(id, "objs", float64(n))
		}
	}
	return nil
}

// fetch times the region query and the object staging of q's region.
func (lr *layerReplay) fetch(rec *recorder, view geodata.View, q *request, root, req int, probe bool) ([]int, []geodata.Object) {
	name := "geodata.region"
	if lr.st.live != nil {
		name = "livestore.region"
	}
	id := rec.begin(name, root, req)
	pos := view.Region(q.region)
	rec.end(id)
	rec.attr(id, "objs", float64(len(pos)))
	id2 := rec.begin("geodata.subset", root, req)
	objs := view.Collection().Subset(pos)
	rec.end(id2)
	if rec != nil && probe {
		rec.spans[id-1].Probe = true
		rec.spans[id2-1].Probe = true
	}
	return pos, objs
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string   `json:"workload"`
	Env      envBlock `json:"env"`
	Spans    []span   `json:"spans"`
}

// traceRun performs the in-process replays, derives the per-layer
// timing metrics from their spans into rep, and writes the spans out.
func traceRun(ctx context.Context, rc *runConfig, sc *script, dataPath string, rep *runReport) error {
	flags := rc.wl.flags(rc.shape())
	var loads, indexes, lives []float64
	// build assembles a fresh stack and, if it keeps state between
	// requests (a tile cache, a live store), replays the script once
	// untraced on it, which brings it to the steady state the timed
	// passes see.
	build := func(name string) (replayer, func(), error) {
		st, err := newStack(dataPath, flags)
		if err != nil {
			return nil, nil, err
		}
		loads, indexes, lives = append(loads, st.loadMs), append(indexes, st.indexMs), append(lives, st.liveMs)
		var rp replayer = &layerReplay{st: st, sc: sc}
		if name == "handler" {
			rp = &handlerReplay{h: st.srv.Handler(), sc: sc, etags: make([]string, sc.etagSlots)}
		}
		if st.cache == nil && st.live == nil {
			return rp, st.srv.Close, nil
		}
		return rp, st.srv.Close, replay(ctx, sc, 0, lane{rp: rp})
	}
	// The explicit sequence without a recorder: the base of the tracing
	// overhead.
	bare, closeBare, err := build("layers")
	if err != nil {
		return err
	}
	start := time.Now()
	err = replay(ctx, sc, 1, lane{rp: bare})
	untraced := time.Since(start)
	closeBare()
	if err != nil {
		return err
	}
	// The traced replay: handler and explicit sequence side by side,
	// each on a stack of its own.
	hrp, closeHandler, err := build("handler")
	if err != nil {
		return err
	}
	defer closeHandler()
	lrp, closeLayers, err := build("layers")
	if err != nil {
		return err
	}
	defer closeLayers()
	epoch := time.Now()
	handler := &recorder{replay: "handler", epoch: epoch}
	layers := &recorder{replay: "layers", epoch: epoch}
	if err := replay(ctx, sc, 1, lane{hrp, handler}, lane{lrp, layers}); err != nil {
		return err
	}
	var traced time.Duration
	for i := range layers.spans {
		if s := &layers.spans[i]; s.Parent == 0 {
			traced += time.Duration(s.EndNs - s.StartNs)
		}
	}

	mt := rep.Metrics
	mt["dataset.load_ms"] = median(loads)
	mt["geodata.index_build_ms"] = median(indexes)
	mt["livestore.build_ms"] = median(lives)
	mt["harness.trace_overhead_pct"] = (traced.Seconds() - untraced.Seconds()) / untraced.Seconds() * 100

	by := map[string][]*span{}
	for i := range layers.spans {
		s := &layers.spans[i]
		by[s.Name] = append(by[s.Name], s)
	}
	mt["geodata.region_ms"] = medianMs(by["geodata.region"])
	mt["geodata.region_objs"] = medianAttr(append(by["geodata.region"], by["livestore.region"]...), "objs")
	mt["geodata.subset_ms"] = medianMs(by["geodata.subset"])
	mt["livestore.region_ms"] = medianMs(by["livestore.region"])
	mt["core.run_ms"] = medianMs(by["core.run"])
	mt["core.evals"] = medianAttr(by["core.run"], "evals")
	mt["core.rounds"] = medianAttr(by["core.run"], "rounds")
	mt["core.evals_per_pick"] = sumAttr(by["core.run"], "evals") / max(1, sumAttr(by["core.run"], "picks"))
	mt["isos.nav_ms"] = medianMs(by["isos.nav"])
	mt["isos.forced"] = medianAttr(by["isos.nav"], "forced")
	mt["isos.candidates"] = medianAttr(by["isos.nav"], "candidates")
	mt["prefetch.bounds_ms"] = medianMs(by["prefetch.bounds"])
	mt["tilecache.select_ms"] = medianMs(by["tilecache.select"])
	mt["tilecache.tile_payload_ms"] = medianMs(by["tilecache.tile_payload"])
	mt["livestore.apply_ms"] = medianMs(by["livestore.apply"])
	mt["livestore.index_commit_ms"] = medianAttr(by["livestore.apply"], "index_commit_ms")

	// Per request: the handler's time against the layer calls it makes;
	// the difference is the server's own time (decode, render, encode).
	// The explicit sequence stands for the handler only if its calls do
	// not add up to more than the handler itself takes.
	layerMs := map[int]float64{}
	for i := range layers.spans {
		if s := &layers.spans[i]; s.Parent != 0 && !s.Probe && !s.Derived {
			layerMs[s.Req] += s.ms()
		}
	}
	// Requests are numbered from 1 in script order.
	byReq := []*request{nil}
	for i := range sc.units {
		for j := range sc.units[i].reqs {
			byReq = append(byReq, &sc.units[i].reqs[j])
		}
	}
	var handlerMs, selfMs, bytesOut []float64
	routes := map[string][]float64{}
	var sumHandler, sumLayers float64
	for i := range handler.spans {
		s := &handler.spans[i]
		q := byReq[s.Req]
		switch {
		case q.kind == opSelect:
			routes["select"] = append(routes["select"], s.ms())
		case q.kind.isNav():
			routes["nav"] = append(routes["nav"], s.ms())
		case q.kind == opTile:
			routes["tiles"] = append(routes["tiles"], s.ms())
		case q.kind == opIngest:
			routes["ingest"] = append(routes["ingest"], s.ms())
		}
		if !q.visible {
			continue
		}
		self := s.ms() - layerMs[s.Req]
		handlerMs = append(handlerMs, s.ms())
		selfMs = append(selfMs, self)
		bytesOut = append(bytesOut, s.Attrs["bytes"])
		sumHandler += s.ms()
		sumLayers += layerMs[s.Req]
	}
	mt["server.handler_ms"] = median(handlerMs)
	mt["server.self_ms"] = median(selfMs)
	mt["server.resp_bytes"] = mean(bytesOut)
	mt["server.select_p50_ms"] = median(routes["select"])
	mt["server.nav_p50_ms"] = median(routes["nav"])
	mt["server.tiles_p50_ms"] = median(routes["tiles"])
	mt["server.ingest_p50_ms"] = median(routes["ingest"])
	mt["harness.client_overhead_ms"] = mt["req_p50_ms"] - mt["server.handler_ms"]
	rep.Notes["trace_spans"] = float64(len(layers.spans) + len(handler.spans))
	rep.Notes["trace_layers_over_handler"] = sumLayers / sumHandler
	if sumLayers > 1.1*sumHandler {
		rep.Problems = append(rep.Problems, fmt.Sprintf("the layer spans add up to %.2f× the handler time: the explicit call sequence does not stand for the handler", sumLayers/sumHandler))
	}

	out := traceFile{Workload: rc.wl.name, Env: rep.Env, Spans: append(handler.spans, layers.spans...)}
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(rc.outDir, "trace-"+rc.wl.name+".json"), buf, 0o644)
}

func medianMs(spans []*span) float64 {
	vals := make([]float64, len(spans))
	for i, s := range spans {
		vals[i] = s.ms()
	}
	return median(vals)
}

func medianAttr(spans []*span, key string) float64 {
	var vals []float64
	for _, s := range spans {
		if v, ok := s.Attrs[key]; ok {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

func sumAttr(spans []*span, key string) float64 {
	var sum float64
	for _, s := range spans {
		sum += s.Attrs[key]
	}
	return sum
}
