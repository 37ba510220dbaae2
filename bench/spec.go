package main

import (
	"fmt"
	"strconv"
)

// Table 2 defaults every scripted request uses.
const (
	selK         = 100
	selThetaFrac = 0.003
)

// clients is the closed-loop concurrency: one goroutine and one
// keep-alive connection per vCPU of the reference box (nproc = 2).
const clients = 2

// dataSeed generates the dataset. The dataset is the benchmark's
// fixture, the same on every run; -seed drives everything a client
// sends. (On datasets of different seeds the city window alone moves
// mixed_live's median latency between 3.6 and 10.3 ms, far more than any
// change to the program would.)
const dataSeed = 1

// timedPasses is how many timed passes a run is cut into, each a whole
// number of replays of the script lasting about a fifth of -seconds.
// Every timing metric is computed per pass and the run reports the
// median of the passes: a neighbour's burst that hits two of them is
// voted out.
const timedPasses = 5

// coldStarts is how many times a full run starts the server from
// scratch; setup_s reports their median.
const coldStarts = 5

// auditEvery keeps every n-th read of a pass for validation.
const auditEvery = 10

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen; zero for per-layer metrics, which have none.
	bound float64
}

// endToEnd is what a user of the server sees, identical on every
// workload. The issue asked for 10–15 % on the timing metrics and 10 %
// on memory; this box does not repeat that well (README, "Reading a
// run": ten-seed spreads of 1–8 % in a quiet stretch and 7–13 % in a
// noisy one, medians of whole campaigns an hour apart 10 % apart), and a
// benchmark is accepted only if ten seeds spread by less than each
// bound, so the bounds are the widest the contract allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"req_p50_ms", "ms", "lower", 0.25},
	{"req_p90_ms", "ms", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"score_ratio", "ratio", "higher", 0.01},
}

// perLayer is one row per layer counter or span statistic, named
// <module>.<what>. A metric that a workload never exercises reads 0
// there.
var perLayer = []metricDef{
	{"dataset.load_ms", "ms", "lower", 0},
	{"geodata.index_build_ms", "ms", "lower", 0},
	{"livestore.build_ms", "ms", "lower", 0},
	{"geodata.region_ms", "ms", "lower", 0},
	{"geodata.region_objs", "count", "lower", 0},
	{"geodata.subset_ms", "ms", "lower", 0},
	{"core.run_ms", "ms", "lower", 0},
	{"core.evals", "count", "lower", 0},
	{"core.rounds", "count", "lower", 0},
	{"core.evals_per_pick", "ratio", "lower", 0},
	{"isos.nav_ms", "ms", "lower", 0},
	{"isos.forced", "count", "higher", 0},
	{"isos.candidates", "count", "lower", 0},
	{"isos.prefetched_share", "ratio", "higher", 0},
	{"prefetch.bounds_ms", "ms", "lower", 0},
	{"tilecache.select_ms", "ms", "lower", 0},
	{"tilecache.tile_payload_ms", "ms", "lower", 0},
	{"tilecache.repair_dropped_per_serve", "ratio", "lower", 0},
	{"tilecache.hit_ratio", "ratio", "higher", 0},
	{"tilecache.fallback_share", "ratio", "lower", 0},
	{"tilecache.cold_compute_ms", "ms", "lower", 0},
	{"tilecache.invalidations", "count", "lower", 0},
	{"tilecache.evictions", "count", "lower", 0},
	{"tilecache.coalesced", "count", "lower", 0},
	{"livestore.apply_ms", "ms", "lower", 0},
	{"livestore.index_commit_ms", "ms", "lower", 0},
	{"livestore.region_ms", "ms", "lower", 0},
	{"livestore.dead_slot_share", "ratio", "lower", 0},
	{"server.handler_ms", "ms", "lower", 0},
	{"server.self_ms", "ms", "lower", 0},
	{"server.resp_bytes", "count", "lower", 0},
	{"server.select_p50_ms", "ms", "lower", 0},
	{"server.nav_p50_ms", "ms", "lower", 0},
	{"server.tiles_p50_ms", "ms", "lower", 0},
	{"server.ingest_p50_ms", "ms", "lower", 0},
	{"harness.client_overhead_ms", "ms", "lower", 0},
	{"harness.trace_overhead_pct", "%", "lower", 0},
	{"host.calib_ms", "ms", "lower", 0},
	{"host.steal_share", "ratio", "lower", 0},
}

// workload is one traffic mix: the server flags it runs under and the
// sizes of its script.
type workload struct {
	name string
	why  string
	// flags returns what geoselserver is passed after -data and -addr.
	flags func(sh shape) []string
	// build generates the script from the plan.
	build func(p *plan) (*script, error)
	// prime replays the script once before the warm-up and counts that
	// replay into setup_s: it fills the cache the workload runs warm on.
	prime bool
	// exact requires audited responses to equal the harness's own exact
	// selection pick for pick: nothing approximate lies on the path.
	exact bool
}

var workloads = []workload{
	{
		name:  "select_cold",
		why:   "stateless /select on a static store with no cache: core+sim+parallel+lazyheap+grid do the work, tilecache/livestore/isos none",
		flags: func(shape) []string { return nil },
		build: buildSelectCold,
		exact: true,
	},
	{
		name:  "nav_session",
		why:   "session start/pan/zoom with a synchronous prefetch before every step: isos derivation, Lemma 5.1-5.3 bounds and bound-seeded core, which select_cold never enters",
		flags: func(shape) []string { return []string{"-async-prefetch=false"} },
		build: buildNavSession,
	},
	{
		name:  "viewport_warm",
		why:   "viewports and tiles served from a filled tile cache: tilecache stitch/repair/wire and server encode dominate, core idles; guards per-request overhead",
		flags: func(shape) []string { return []string{"-live", "-tilecache"} },
		build: buildViewportWarm,
		prime: true,
	},
	{
		name: "mixed_live",
		why:  "reads, session steps, tiles and count-coupled /ingest batches over a cache smaller than the working set: commit, invalidation, recompute, eviction, singleflight, repin",
		flags: func(sh shape) []string {
			return []string{"-live", "-tilecache", "-tilecache-capacity", strconv.Itoa(sh.mixedCapacity), "-async-prefetch=false"}
		},
		build: buildMixedLive,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// shape holds every size a script generator reads, so the -quick smoke
// can shrink a run without touching the generators.
type shape struct {
	// n is the dataset size.
	n int

	// select_cold: requests per pass and the |O_region| range their
	// targets are spread over, log-uniformly and on a fixed grid.
	coldRequests             int
	coldCountLo, coldCountHi int

	// nav_session: sessions per pass, steps after start, the object
	// count a session starts at, the band every visited region must stay
	// inside, and the cap on its prefetch envelope.
	navSessions            int
	navSteps               int
	navStartLo, navStartHi int
	navAdmitLo, navAdmitHi int
	navEnvHi               int

	// Tile-cache workloads: the admitted object count of every covering
	// tile, the cap on a viewport's own count, and the request totals.
	tileLo, tileHi int
	regionHi       int
	warmRequests   int
	mixedCycles    int
	// mixedCapacity is mixed_live's -tilecache-capacity, a fraction of
	// the tile keys its script touches.
	mixedCapacity int
}

var fullShape = shape{
	n:            100000,
	coldRequests: 160, coldCountLo: 100, coldCountHi: 1400,
	navSessions: 20, navSteps: 14,
	navStartLo: 130, navStartHi: 160, navAdmitLo: 65, navAdmitHi: 220, navEnvHi: 2200,
	tileLo: 25, tileHi: 400, regionHi: 600,
	warmRequests: 400,
	mixedCycles:  30, mixedCapacity: 128,
}

// quickShape is the smoke-test size: the same code paths on 8000
// objects, small enough that all four workloads finish in seconds.
var quickShape = shape{
	n:            8000,
	coldRequests: 16, coldCountLo: 40, coldCountHi: 200,
	navSessions: 2, navSteps: 6,
	navStartLo: 60, navStartHi: 80, navAdmitLo: 20, navAdmitHi: 160, navEnvHi: 1500,
	tileLo: 2, tileHi: 120, regionHi: 200,
	warmRequests: 40,
	mixedCycles:  3, mixedCapacity: 16,
}
