// Command geoselserver serves the selection library over HTTP+JSON.
//
// Usage:
//
//	geoselserver -data pois.csv -addr :8080
//	geoselserver -preset uk -n 100000 -addr :8080
//
// Endpoints:
//
//	GET  /healthz
//	POST /select                      one-shot sos selection
//	POST /sessions                    create an interactive session
//	POST /sessions/{id}/start         begin at a region
//	POST /sessions/{id}/zoomin        navigate (consistency-aware)
//	POST /sessions/{id}/zoomout
//	POST /sessions/{id}/pan
//	POST /sessions/{id}/back          return to the previous viewport
//	POST /sessions/{id}/prefetch      warm the next operation
//	DELETE /sessions/{id}
//	GET  /store/stats                 store counters, snapshot version, uptime
//
// Every mode reads one index, the live store's grid; without -live the
// server serves its version 0 frozen. With -live, the dataset is
// mutable and two more endpoints are active (they answer 501
// otherwise):
//
//	POST   /ingest                    commit a mutation batch as one epoch
//	DELETE /objects/{id}              delete one object by external id
//
// With -tilecache, selections are materialized per map tile and two
// more endpoints are active (they answer 501 otherwise):
//
//	GET /tiles/{z}/{x}/{y}            one tile's selection, compact binary + ETag
//	GET /cache/stats                  tile cache hit/miss/eviction/repair counters
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geodata"
	"geosel/internal/livestore"
	"geosel/internal/server"
	"geosel/internal/sim"
)

// shutdownGrace bounds how long a drain waits for in-flight selections
// before the process exits anyway.
const shutdownGrace = 30 * time.Second

func main() {
	var (
		data        = flag.String("data", "", "dataset file (CSV, JSONL or binary snapshot); empty = generate a preset")
		preset      = flag.String("preset", "poi", "preset when generating: uk, us or poi")
		n           = flag.Int("n", 50000, "generated dataset size")
		seed        = flag.Int64("seed", 1, "generation seed")
		addr        = flag.String("addr", ":8080", "listen address")
		reqTimeout  = flag.Duration("request-timeout", 10*time.Second, "per-request selection deadline (0 = none)")
		sessionTTL  = flag.Duration("session-ttl", engine.DefaultSessionTTL, "evict sessions idle for this long (negative = never)")
		maxSessions = flag.Int("max-sessions", engine.DefaultMaxSessions, "maximum live sessions; the idlest is evicted beyond this")
		live        = flag.Bool("live", false, "make the store mutable: enables POST /ingest and DELETE /objects/{id}")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty = disabled")
		tileCache   = flag.Bool("tilecache", false, "materialize selections per map tile: warm /select and session serving, enables GET /tiles/{z}/{x}/{y} and GET /cache/stats")
		tileCap     = flag.Int("tilecache-capacity", 0, "cached tile entries, least recently used evicted first (0 = engine default)")
		// Still accepted so existing command lines keep working.
		_ = flag.Bool("async-prefetch", false, "ignored: sessions prefetch only on POST /sessions/{id}/prefetch")
	)
	flag.Parse()

	if *pprofAddr != "" {
		// A dedicated mux on a dedicated listener: the profiling
		// endpoints never share a port with the public API, so exposing
		// the service does not expose the profiler.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			dbg := &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Print("geoselserver: pprof: ", err)
			}
		}()
	}

	col, err := dataset.Load(*data, *preset, *n, *seed)
	if err != nil {
		log.Fatal("geoselserver: ", err)
	}
	cfg := engine.Config{
		Metric:            sim.Cosine{},
		RequestTimeout:    *reqTimeout,
		SessionTTL:        *sessionTTL,
		MaxSessions:       *maxSessions,
		TileCache:         *tileCache,
		TileCacheCapacity: *tileCap,
	}
	// A frozen snapshot is not a *livestore.Store, so without -live the
	// write routes answer 501.
	ls, err := livestore.New(col, cfg)
	if err != nil {
		log.Fatal("geoselserver: ", err)
	}
	var src geodata.Source = ls
	if !*live {
		src = livestore.Freeze(ls.Current())
	}
	srv, err := server.New(src, cfg)
	if err != nil {
		log.Fatal("geoselserver: ", err)
	}
	log.Printf("serving %d objects (live %v) on %s", ls.Current().Len(), *live, *addr)
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain: Shutdown stops accepting
	// and waits for in-flight selections (bounded by shutdownGrace —
	// past it, request contexts are cancelled and handlers return 503).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal("geoselserver: ", err)
	case <-ctx.Done():
	}
	stop()
	log.Print("shutting down, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Print("geoselserver: shutdown: ", err)
	}
}
