// Package server exposes the selection library over HTTP+JSON: a
// stateless /select endpoint for one-shot sos queries and a stateful
// /sessions API for interactive, consistency-aware exploration
// (the isos problem), matching how a map frontend would consume the
// library. It uses only net/http and encoding/json.
//
// Every selection response — /select cached or not, the four session
// steps, /back — is built by writeSelection: the whole body appended
// into a pooled buffer out of geodata's one object renderer (or, on the
// warm path, out of the tile cache's pre-rendered fragments), then sent
// with its Content-Length in one Write. The bytes are what
// encoding/json would write for the same values; the same request on
// the same data gets the same bytes.
//
// Every request runs under its context: the client disconnecting (or a
// server Shutdown draining) cancels the selection within one row, and
// engine.Config.RequestTimeout adds a server-side deadline on top.
// Sessions are evicted after engine.Config.SessionTTL of idleness and
// capped at engine.Config.MaxSessions (idlest evicted first); requests
// for an evicted session return 404 like any unknown id.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"geosel/internal/core"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/isos"
	"geosel/internal/livestore"
	"geosel/internal/tilecache"
)

// maxBodyBytes bounds request bodies; selection requests are tiny.
const maxBodyBytes = 1 << 20

// maxIngestBodyBytes bounds /ingest bodies, which carry whole mutation
// batches.
const maxIngestBodyBytes = 64 << 20

// sessionEntry is one live session plus its serving metadata. Per-entry
// locking lets a slow selection on one session proceed concurrently
// with requests for other sessions; the server-wide mutex is held only
// for map lookups and eviction bookkeeping, never across a selection.
type sessionEntry struct {
	// mu serializes operations on this session (sessions are
	// single-user, but HTTP clients can misbehave).
	mu   sync.Mutex
	sess *isos.Session
	// last is the start of the entry's most recent request, guarded by
	// the server mutex (not the entry mutex) so the eviction scan never
	// has to take entry locks.
	last time.Time
}

// Server serves selection queries over one indexed dataset. All knobs
// arrive through the engine.Config passed to New — there are no
// mutating setters, so a Server is safe for concurrent requests from
// the moment it is constructed.
type Server struct {
	src geodata.Source
	// live is the source's writer half when the server was built over a
	// *livestore.Store; nil for a static store, in which case the ingest
	// endpoints answer 501.
	live *livestore.Store
	cfg  engine.Config
	// cache is the tile-grain materialized selection cache, nil unless
	// cfg.TileCache is set; with it, /select and session navigations are
	// served warm when possible and GET /tiles/{z}/{x}/{y} is active.
	cache *tilecache.Cache
	// started anchors the uptime reported by GET /store/stats.
	started time.Time

	mu       sync.Mutex
	sessions map[string]*sessionEntry
	nextID   int

	// now is the clock; a test hook.
	now func() time.Time
}

// New returns a server over the given source — a static *geodata.Store
// or a live *livestore.Store. With a live store the mutation endpoints
// (POST /ingest, DELETE /objects/{id}) are active and every read
// request pins the then-current snapshot; with a static store they
// answer 501 and reads see the one version-0 view. GET /store/stats
// answers for both kinds of store.
//
// cfg must carry at least the Metric; K and ThetaFrac arrive per
// request. Zero-valued serving fields take the engine defaults
// (SessionTTL 15m, MaxSessions 1024; RequestTimeout 0 = no server-side
// deadline), and a negative SessionTTL disables TTL eviction.
func New(src geodata.Source, cfg engine.Config) (*Server, error) {
	if src == nil {
		return nil, fmt.Errorf("server: nil source")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	live, _ := src.(*livestore.Store)
	srv := &Server{
		src:      src,
		live:     live,
		cfg:      cfg,
		sessions: make(map[string]*sessionEntry),
		now:      time.Now,
		started:  time.Now(),
	}
	if cfg.TileCache {
		cache, err := tilecache.New(cfg)
		if err != nil {
			return nil, err
		}
		srv.cache = cache
	}
	return srv, nil
}

// Close drops every live session. Call it after http.Server.Shutdown
// has drained in-flight requests.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.sessions)
}

// requestContext derives the context a handler's work runs under: the
// request context (cancelled when the client disconnects or the server
// drains) plus the configured per-request deadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// ctxStatus maps a selection error to an HTTP status: 504 for a
// server-imposed deadline, 499-style 503 for a cancelled client, 400
// for everything else (invalid configurations).
func ctxStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /select", s.handleSelect)
	mux.HandleFunc("POST /sessions", s.handleCreateSession)
	mux.HandleFunc("POST /sessions/{id}/start", s.sessionOp(opStart))
	mux.HandleFunc("POST /sessions/{id}/zoomin", s.sessionOp(opZoomIn))
	mux.HandleFunc("POST /sessions/{id}/zoomout", s.sessionOp(opZoomOut))
	mux.HandleFunc("POST /sessions/{id}/pan", s.sessionOp(opPan))
	mux.HandleFunc("POST /sessions/{id}/prefetch", s.handlePrefetch)
	mux.HandleFunc("POST /sessions/{id}/back", s.handleBack)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleDeleteSession)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("DELETE /objects/{id}", s.handleDeleteObject)
	mux.HandleFunc("GET /store/stats", s.handleStoreStats)
	mux.HandleFunc("GET /tiles/{z}/{x}/{y}", s.handleTile)
	mux.HandleFunc("GET /cache/stats", s.handleCacheStats)
	return mux
}

// rectJSON is the wire form of a map region.
type rectJSON struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

func (r rectJSON) rect() geo.Rect {
	return geo.Rect{Min: geo.Pt(r.MinX, r.MinY), Max: geo.Pt(r.MaxX, r.MaxY)}
}

// selectionMeta is what a selection response carries besides its
// objects, in wire order: score, regionObjects, then prefetched,
// responseMs, warm and scoreApprox, each left out at its zero value.
type selectionMeta struct {
	score         float64
	regionObjects int
	prefetched    bool
	responseMs    float64
	// warm reports the selection was stitched from the tile cache; its
	// score is then the gain-mass approximation (scoreApprox).
	warm        bool
	scoreApprox bool
}

// selectionOpen starts every selection body; the objects array follows.
const selectionOpen = `{"objects":`

// bodyBuf is a pooled response body under construction.
type bodyBuf struct{ b []byte }

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

// getBody takes a body from the pool, holding selectionOpen: the
// objects array is appended next. The caller puts it back.
func getBody() *bodyBuf {
	bb := bodyPool.Get().(*bodyBuf)
	bb.b = append(bb.b[:0], selectionOpen...)
	return bb
}

// appendMeta closes a selection body after its objects array the way
// encoding/json ends the struct, newline included. ok is false when the
// score is one JSON cannot carry (NaN, ±Inf); responseMs, a duration in
// milliseconds, is always finite.
//
//geolint:hotpath
func appendMeta(dst []byte, m selectionMeta) (_ []byte, ok bool) {
	if !finite(m.score) {
		return dst, false
	}
	dst = append(dst, `,"score":`...)
	dst = geodata.AppendJSONFloat(dst, m.score)
	dst = append(dst, `,"regionObjects":`...)
	dst = strconv.AppendInt(dst, int64(m.regionObjects), 10)
	if m.prefetched {
		dst = append(dst, `,"prefetched":true`...)
	}
	if m.responseMs != 0 {
		dst = append(dst, `,"responseMs":`...)
		dst = geodata.AppendJSONFloat(dst, m.responseMs)
	}
	if m.warm {
		dst = append(dst, `,"warm":true`...)
	}
	if m.scoreApprox {
		dst = append(dst, `,"scoreApprox":true`...)
	}
	return append(dst, '}', '\n'), true
}

// writeSelection completes and sends a selection body: bb holds
// selectionOpen and the objects array, the meta fields are appended,
// and only a complete body is committed — with its Content-Length, in
// one Write. A value JSON cannot carry is a 500, not a 200 cut short.
func writeSelection(w http.ResponseWriter, bb *bodyBuf, m selectionMeta) {
	var ok bool
	if bb.b, ok = appendMeta(bb.b, m); !ok {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("selection score %v cannot be encoded as JSON", m.score))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(bb.b)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(bb.b); err != nil {
		// Client went away mid-body; nothing more to do.
		return
	}
}

// writePositions renders positions against the view they were selected
// on and sends the selection. Passing the pinned view (not a fresh
// source snapshot) matters under live ingestion: positions must be
// resolved on a snapshot at least as new as the one that produced them,
// which the pinned view is by construction.
func writePositions(w http.ResponseWriter, view geodata.View, positions []int, m selectionMeta) {
	bb := getBody()
	defer bodyPool.Put(bb)
	bb.b = geodata.AppendObjectsJSON(bb.b, view.Collection().Objects, positions)
	writeSelection(w, bb, m)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	view, version := s.src.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"objects": view.Len(),
		"version": version,
		"live":    s.live != nil,
	})
}

// selectRequest is the /select body.
type selectRequest struct {
	Region    rectJSON `json:"region"`
	K         int      `json:"k"`
	ThetaFrac float64  `json:"thetaFrac"`
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req selectRequest
	if !decode(w, r, maxBodyBytes, &req) {
		return
	}
	region := req.Region.rect()
	if reject(w, checkRegion(region), checkK(req.K), checkTheta("thetaFrac", req.ThetaFrac)) {
		return
	}
	theta := req.ThetaFrac * region.Side()
	ctx, cancel := s.requestContext(r)
	defer cancel()
	// Pin one snapshot for the whole request: region fetch, selection
	// and rendering all see the same consistent version even while
	// /ingest commits new epochs concurrently.
	view, version := s.src.Snapshot()
	if s.cache != nil {
		bb := getBody()
		defer bodyPool.Put(bb)
		body, res, err := s.cache.AppendSelectJSON(ctx, view, version, region, req.K, theta, bb.b)
		bb.b = body
		if err != nil {
			writeError(w, ctxStatus(err), err.Error())
			return
		}
		writeSelection(w, bb, selectionMeta{
			score:         res.Score,
			regionObjects: res.RegionObjects,
			warm:          !res.Fallback,
			scoreApprox:   !res.Fallback,
		})
		return
	}
	res, err := core.SelectRegion(ctx, s.cfg, view.Collection(), view.Region(region), req.K, theta, nil, nil, nil, nil)
	if err != nil {
		writeError(w, ctxStatus(err), err.Error())
		return
	}
	writePositions(w, view, res.Positions, selectionMeta{score: res.Score, regionObjects: res.RegionObjects})
}

// createSessionRequest is the /sessions body.
type createSessionRequest struct {
	K         int     `json:"k"`
	ThetaFrac float64 `json:"thetaFrac"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req createSessionRequest
	if !decode(w, r, maxBodyBytes, &req) {
		return
	}
	if reject(w, checkK(req.K), checkTheta("thetaFrac", req.ThetaFrac)) {
		return
	}
	cfg := isos.Config{Config: s.cfg}
	cfg.K = req.K
	cfg.ThetaFrac = req.ThetaFrac
	if s.cache != nil {
		// Assign only through the nil check: a typed-nil *Cache inside the
		// interface would defeat the session's Warmer == nil test.
		cfg.Warmer = s.cache
	}
	sess, err := isos.NewSession(s.src, cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.mu.Lock()
	s.evictLocked()
	s.nextID++
	id := strconv.Itoa(s.nextID)
	s.sessions[id] = &sessionEntry{sess: sess, last: s.now()}
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]string{"sessionId": id})
}

// evictLocked enforces the session lifecycle bounds; the caller holds
// s.mu. Sessions idle past SessionTTL are dropped, and when the map is
// still at MaxSessions the idlest sessions are dropped until one slot
// is free for the caller's insert. An in-flight request that still
// holds an evicted entry's lock finishes on it, while future lookups
// 404.
func (s *Server) evictLocked() {
	now := s.now()
	if ttl := s.cfg.SessionTTL; ttl > 0 {
		for id, ent := range s.sessions {
			if now.Sub(ent.last) > ttl {
				delete(s.sessions, id)
			}
		}
	}
	max := s.cfg.MaxSessions
	if max <= 0 {
		return
	}
	for len(s.sessions) >= max {
		oldestID := ""
		var oldest time.Time
		for id, ent := range s.sessions {
			if oldestID == "" || ent.last.Before(oldest) {
				oldestID, oldest = id, ent.last
			}
		}
		if oldestID == "" {
			return
		}
		delete(s.sessions, oldestID)
	}
}

// session looks up a live entry and stamps its idle clock.
func (s *Server) session(id string) (*sessionEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.sessions[id]
	if ok {
		ent.last = s.now()
	}
	return ent, ok
}

type opKind int

const (
	opStart opKind = iota
	opZoomIn
	opZoomOut
	opPan
)

// opRequest is the body for start/zoomin/zoomout (region) and pan
// (dx/dy).
type opRequest struct {
	Region rectJSON `json:"region"`
	DX     float64  `json:"dx"`
	DY     float64  `json:"dy"`
}

func (s *Server) sessionOp(kind opKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ent, ok := s.session(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown session")
			return
		}
		var req opRequest
		if !decode(w, r, maxBodyBytes, &req) {
			return
		}
		bad := checkRegion(req.Region.rect())
		if kind == opPan {
			bad = checkDelta(req.DX, req.DY)
		}
		if reject(w, bad) {
			return
		}
		ctx, cancel := s.requestContext(r)
		defer cancel()
		var sel *isos.Selection
		var err error
		ent.mu.Lock()
		switch kind {
		case opStart:
			sel, err = ent.sess.Start(ctx, req.Region.rect())
		case opZoomIn:
			sel, err = ent.sess.ZoomIn(ctx, req.Region.rect())
		case opZoomOut:
			sel, err = ent.sess.ZoomOut(ctx, req.Region.rect())
		default:
			sel, err = ent.sess.Pan(ctx, geo.Pt(req.DX, req.DY))
		}
		view, _ := ent.sess.View()
		ent.mu.Unlock()
		if err != nil {
			writeError(w, ctxStatus(err), err.Error())
			return
		}
		writePositions(w, view, sel.Positions, selectionMeta{
			score:         sel.Score,
			regionObjects: sel.RegionObjects,
			prefetched:    sel.Prefetched,
			responseMs:    float64(sel.Elapsed.Microseconds()) / 1000,
			warm:          sel.Warm,
			scoreApprox:   sel.Warm,
		})
	}
}

// prefetchRequest optionally restricts which operations to prefetch.
type prefetchRequest struct {
	Ops []string `json:"ops"`
}

func (s *Server) handlePrefetch(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session")
		return
	}
	var req prefetchRequest
	if !decode(w, r, maxBodyBytes, &req) {
		return
	}
	var ops []geo.Op
	for _, name := range req.Ops {
		switch name {
		case "zoomin":
			ops = append(ops, geo.OpZoomIn)
		case "zoomout":
			ops = append(ops, geo.OpZoomOut)
		case "pan":
			ops = append(ops, geo.OpPan)
		default:
			writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown op %q", name))
			return
		}
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	ent.mu.Lock()
	err := ent.sess.Prefetch(ctx, ops...)
	ent.mu.Unlock()
	if err != nil {
		writeError(w, ctxStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "prefetched"})
}

func (s *Server) handleBack(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session")
		return
	}
	ent.mu.Lock()
	sel, err := ent.sess.Back()
	view, _ := ent.sess.View()
	ent.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writePositions(w, view, sel.Positions, selectionMeta{regionObjects: sel.RegionObjects})
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// requireLive answers 501 and returns nil unless the server runs a live
// store.
func (s *Server) requireLive(w http.ResponseWriter) *livestore.Store {
	if s.live == nil {
		writeError(w, http.StatusNotImplemented, "live ingestion not enabled: server runs a static store")
		return nil
	}
	return s.live
}

// mutationJSON is the wire form of one mutation.
type mutationJSON struct {
	Op     string  `json:"op"`
	ID     int     `json:"id"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Weight float64 `json:"weight"`
	Text   string  `json:"text,omitempty"`
}

// ingestRequest is the /ingest body: a batch of mutations committed as
// one epoch.
type ingestRequest struct {
	Mutations []mutationJSON `json:"mutations"`
}

// ingestResponse reports the committed epoch.
type ingestResponse struct {
	Version  uint64 `json:"version"`
	Inserted int    `json:"inserted"`
	Updated  int    `json:"updated"`
	Deleted  int    `json:"deleted"`
	Missed   int    `json:"missed"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	live := s.requireLive(w)
	if live == nil {
		return
	}
	var req ingestRequest
	if !decode(w, r, maxIngestBodyBytes, &req) {
		return
	}
	muts := make([]livestore.Mutation, 0, len(req.Mutations))
	for i, m := range req.Mutations {
		op, err := livestore.ParseOp(m.Op)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("mutation %d: %v", i, err))
			return
		}
		muts = append(muts, livestore.Mutation{
			Op: op, ID: m.ID, Loc: geo.Pt(m.X, m.Y), Weight: m.Weight, Text: m.Text,
		})
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	version, out, err := live.Apply(ctx, muts)
	if err != nil {
		writeError(w, ctxStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Version: version, Inserted: out.Inserted, Updated: out.Updated,
		Deleted: out.Deleted, Missed: out.Missed,
	})
}

func (s *Server) handleDeleteObject(w http.ResponseWriter, r *http.Request) {
	live := s.requireLive(w)
	if live == nil {
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "object id must be an integer")
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	version, out, err := live.Apply(ctx, []livestore.Mutation{{Op: livestore.OpDelete, ID: id}})
	if err != nil {
		writeError(w, ctxStatus(err), err.Error())
		return
	}
	if out.Deleted == 0 {
		writeError(w, http.StatusNotFound, "unknown object")
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{Version: version, Deleted: out.Deleted})
}

func (s *Server) handleStoreStats(w http.ResponseWriter, _ *http.Request) {
	view, version := s.src.Snapshot()
	out := map[string]any{
		"version":       version,
		"live":          view.Len(),
		"static":        s.live == nil,
		"uptimeSeconds": s.now().Sub(s.started).Seconds(),
	}
	if s.live != nil {
		st := s.live.Stats()
		out["version"] = st.Version
		out["live"] = st.Live
		out["slots"] = st.Slots
		out["deadSlots"] = st.DeadSlots
		out["capacity"] = st.Capacity
		out["compactions"] = st.Compactions
		out["batches"] = st.Batches
		out["mutations"] = st.Mutations
		out["inserted"] = st.Totals.Inserted
		out["updated"] = st.Totals.Updated
		out["deleted"] = st.Totals.Deleted
		out["missed"] = st.Totals.Missed
	}
	writeJSON(w, http.StatusOK, out)
}

// Table 2 defaults a bare tile request implies; clients override with
// the k / theta / thetaFrac query parameters.
const (
	defaultTileK         = 100
	defaultTileThetaFrac = 0.003
)

// handleTile serves one materialized tile in the compact binary wire
// format (tilecache/wire.go). The ETag fully determines the payload
// bytes, so If-None-Match revalidation — and CDN caching keyed on the
// ETag — is sound; Cache-Control asks intermediaries to revalidate
// because a live store's content moves with the snapshot version.
func (s *Server) handleTile(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		writeError(w, http.StatusNotImplemented, "tile cache not enabled: configure engine.Config.TileCache")
		return
	}
	z, errZ := strconv.Atoi(r.PathValue("z"))
	x, errX := strconv.Atoi(r.PathValue("x"))
	y, errY := strconv.Atoi(r.PathValue("y"))
	if errZ != nil || errX != nil || errY != nil {
		writeError(w, http.StatusBadRequest, "tile coordinates must be integers")
		return
	}
	q := r.URL.Query()
	k := defaultTileK
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "k must be an integer")
			return
		}
		k = n
	}
	var theta float64
	switch {
	case q.Get("theta") != "":
		t, err := strconv.ParseFloat(q.Get("theta"), 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "theta must be a number")
			return
		}
		theta = t
	default:
		frac := defaultTileThetaFrac
		if v := q.Get("thetaFrac"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "thetaFrac must be a number")
				return
			}
			frac = f
		}
		theta = tilecache.DefaultTileTheta(int32(z), frac)
	}
	if reject(w, checkK(k), checkTheta("theta", theta)) {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	view, version := s.src.Snapshot()
	tile, err := s.cache.Tile(ctx, view, version, z, x, y, theta, k)
	if err != nil {
		writeError(w, ctxStatus(err), err.Error())
		return
	}
	etag := tile.ETag()
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache")
	if noneMatchHolds(r.Header.Values("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	payload := tile.AppendPayload(nil)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	if _, err := w.Write(payload); err != nil {
		// Client went away mid-body; nothing more to do.
		return
	}
}

// noneMatchHolds reports whether an If-None-Match header (RFC 9110
// §13.1.2) names etag: as "*", or as a member of its comma-separated
// list, compared weakly (a W/ prefix is ignored).
func noneMatchHolds(values []string, etag string) bool {
	for _, list := range values {
		for list != "" {
			var tag string
			tag, list, _ = strings.Cut(list, ",")
			tag = strings.TrimSpace(tag)
			if tag == "*" || strings.TrimPrefix(tag, "W/") == etag {
				return true
			}
		}
	}
	return false
}

func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	if s.cache == nil {
		writeError(w, http.StatusNotImplemented, "tile cache not enabled: configure engine.Config.TileCache")
		return
	}
	writeJSON(w, http.StatusOK, s.cache.Stats())
}

// maxK bounds the k a request may ask for: 40× the paper's k = 100, and
// small enough that no request-sized number reaches an allocation or is
// truncated into a tile key.
const maxK = 4096

// The request-number checks, one per kind of number a route accepts.
// Handlers run them before pinning a snapshot, so a NaN, an infinity or
// an absurd k costs a 400 and nothing else.

func checkK(k int) error {
	if k <= 0 || k > maxK {
		return fmt.Errorf("k = %d outside [1, %d]", k, maxK)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkTheta accepts a finite, non-negative θ or θ-fraction.
func checkTheta(name string, v float64) error {
	if !finite(v) || v < 0 {
		return fmt.Errorf("%s = %v must be finite and non-negative", name, v)
	}
	return nil
}

// checkRegion accepts a rectangle of finite, positive width and height
// — which only finite corners give.
func checkRegion(r geo.Rect) error {
	if w, h := r.Width(), r.Height(); !finite(w) || !finite(h) || w <= 0 || h <= 0 {
		return fmt.Errorf("invalid region %v", r)
	}
	return nil
}

func checkDelta(dx, dy float64) error {
	if !finite(dx) || !finite(dy) {
		return fmt.Errorf("dx = %v, dy = %v must be finite", dx, dy)
	}
	return nil
}

// reject answers 400 with the first non-nil error and reports whether
// it did.
func reject(w http.ResponseWriter, errs ...error) bool {
	for _, err := range errs {
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return true
		}
	}
	return false
}

// decode reads a body of at most limit bytes holding exactly one JSON
// value into dst, writing a 400 on failure — also when anything but
// white space follows the value.
func decode(w http.ResponseWriter, r *http.Request, limit int64, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, "bad request body: data after the JSON value")
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing more to do.
		return
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
