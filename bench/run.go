package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geodata"
	"geosel/internal/livestore"
	"geosel/internal/tilecache"
)

// runConfig is one invocation's settings for one workload.
type runConfig struct {
	wl      workload
	seed    int64
	seconds int
	quick   bool
	trace   bool
	root    string
	outDir  string
	// serverBin is the built geoselserver.
	serverBin string
}

func (rc *runConfig) shape() shape {
	if rc.quick {
		return quickShape
	}
	return fullShape
}

func hasFlag(flags []string, name string) bool {
	for _, f := range flags {
		if f == name {
			return true
		}
	}
	return false
}

// runReport is everything one workload run found.
type runReport struct {
	Workload  string             `json:"workload"`
	Env       envBlock           `json:"env"`
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// Problems lists every reason the run does not count: failed
	// requests, failed validation, and the fail-loud checks that say the
	// workload measured something other than what it is for.
	Problems []string `json:"problems"`
	// Notes are the sample counts behind the metrics.
	Notes map[string]float64 `json:"notes"`
	// Passes are the per-pass values the medians were taken over.
	Passes []passLine `json:"passes"`
}

// storeStats is the part of GET /store/stats the harness reads.
type storeStats struct {
	Version   uint64 `json:"version"`
	Slots     int    `json:"slots"`
	DeadSlots int    `json:"deadSlots"`
}

// counters is one reading of the server's own layer counters.
type counters struct {
	cache tilecache.Stats
	store storeStats
}

// poll reads the stats endpoints the workload's flags enable.
func poll(ctx context.Context, base string, flags []string) (counters, error) {
	var c counters
	if hasFlag(flags, "-tilecache") {
		if err := getJSON(ctx, base+"/cache/stats", &c.cache); err != nil {
			return c, err
		}
	}
	if err := getJSON(ctx, base+"/store/stats", &c.store); err != nil {
		return c, err
	}
	return c, nil
}

// cacheDelta accumulates tile-cache counter movement over timed passes.
type cacheDelta struct {
	requests, warmServes, fallbacks, warmNavs uint64
	hits, misses, coalesced                   uint64
	evictions, invalidations, repairDropped   uint64
	coldCount, coldSumNs                      uint64
}

func (d *cacheDelta) add(before, after tilecache.Stats) {
	d.requests += after.Requests - before.Requests
	d.warmServes += after.WarmServes - before.WarmServes
	d.fallbacks += after.Fallbacks - before.Fallbacks
	d.warmNavs += after.WarmNavigations - before.WarmNavigations
	d.hits += after.TileHits - before.TileHits
	d.misses += after.TileMisses - before.TileMisses
	d.coalesced += after.Coalesced - before.Coalesced
	d.evictions += after.Evictions - before.Evictions
	d.invalidations += after.Invalidations - before.Invalidations
	d.repairDropped += after.RepairDropped - before.RepairDropped
	d.coldCount += after.ColdComputeNs.Count - before.ColdComputeNs.Count
	d.coldSumNs += after.ColdComputeNs.SumNs - before.ColdComputeNs.SumNs
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (d *cacheDelta) hitRatio() float64      { return ratio(d.hits, d.hits+d.misses) }
func (d *cacheDelta) fallbackShare() float64 { return ratio(d.fallbacks, d.requests) }

// measured is what the fail-loud checks read.
type measured struct {
	workload   string
	cache      cacheDelta
	version    uint64
	mirrorVer  uint64
	batches    uint64
	navOps     int
	prefetched int
	// serverErrors counts 5xx replies (504 among them).
	serverErrors int
	serverExited bool
	failed       int
	auditBad     int
	audited      int
}

// problems applies the checks that turn a run that measured nothing —
// or not what the workload is for — into a loud failure.
func (m *measured) problems() []string {
	var out []string
	if m.serverExited {
		out = append(out, "the server exited during the run")
	}
	if m.serverErrors > 0 {
		out = append(out, fmt.Sprintf("%d requests were answered 5xx", m.serverErrors))
	}
	if m.failed > 0 {
		out = append(out, fmt.Sprintf("%d requests failed", m.failed))
	}
	if m.auditBad > 0 {
		out = append(out, fmt.Sprintf("%d audited responses failed validation", m.auditBad))
	}
	if m.audited == 0 {
		out = append(out, "no response was audited")
	}
	switch m.workload {
	case "viewport_warm":
		if r := m.cache.hitRatio(); r < 0.99 {
			out = append(out, fmt.Sprintf("tilecache.hit_ratio = %.4f < 0.99: the cache was not warm", r))
		}
		if s := m.cache.fallbackShare(); s > 0.05 {
			out = append(out, fmt.Sprintf("tilecache.fallback_share = %.4f > 0.05: viewports were served by full greedy runs", s))
		}
	case "mixed_live":
		if m.cache.invalidations == 0 {
			out = append(out, "tilecache.invalidations = 0: no write dirtied a cached tile")
		}
		if m.cache.evictions == 0 {
			out = append(out, "tilecache.evictions = 0: the working set fits the cache")
		}
		if m.version != m.batches || m.mirrorVer != m.batches {
			out = append(out, fmt.Sprintf("store version %d (mirror %d) after %d batches: a batch did not commit exactly one epoch", m.version, m.mirrorVer, m.batches))
		}
	case "nav_session":
		if m.prefetched == 0 {
			out = append(out, fmt.Sprintf("isos.prefetched_share = 0 over %d navigations: no navigation was seeded from prefetched bounds", m.navOps))
		}
	}
	return out
}

// quiesceAudits is how many reads mixed_live re-issues and checks
// against the mirror store after each pass, when no write is in flight.
const quiesceAudits = 8

// writeDataset writes the plan's collection as the binary snapshot the
// server loads.
func writeDataset(path string, col *geodata.Collection) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := dataset.WriteBinary(w, col); err != nil {
		// The write error is the one reported.
		f.Close() //geolint:errok
		return err
	}
	if err := w.Flush(); err != nil {
		// The flush error is the one reported.
		f.Close() //geolint:errok
		return err
	}
	return f.Close()
}

// runWorkload generates the inputs, starts the real server and measures
// one workload.
func runWorkload(ctx context.Context, rc *runConfig) (*runReport, error) {
	sh := rc.shape()
	p, err := newPlan(rc.seed, sh)
	if err != nil {
		return nil, err
	}
	sc, err := rc.wl.build(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rc.wl.name, err)
	}
	dataPath := filepath.Join(rc.outDir, fmt.Sprintf("data-%d.bin", sh.n))
	if err := writeDataset(dataPath, p.col); err != nil {
		return nil, err
	}
	flags := rc.wl.flags(sh)
	rep := &runReport{
		Workload: rc.wl.name,
		Env:      captureEnv(rc.root, rc.seed, rc.seconds, sh.n, flags),
		Metrics:  map[string]float64{},
		Notes:    map[string]float64{},
	}

	// The mirror store receives every batch the server does, so reads
	// can be validated against what the server must hold.
	var mirror *livestore.Store
	if sc.ingest != nil {
		if mirror, err = livestore.New(p.col, engine.Config{Metric: metric}); err != nil {
			return nil, err
		}
	}

	starts := coldStarts
	if rc.quick {
		starts = 1
	}

	// Cold starts: exec → first 200 from /healthz, on this workload's
	// dataset and flags. The last one stays up for the measurement.
	var sp *serverProc
	var startSecs []float64
	for i := 0; i < starts; i++ {
		if sp != nil {
			sp.stop()
		}
		var took time.Duration
		if sp, took, err = startServer(rc.serverBin, dataPath, flags); err != nil {
			return nil, err
		}
		startSecs = append(startSecs, took.Seconds())
	}
	defer sp.stop()
	d := newDriver(sp.base, sc)
	defer d.close()

	m := &measured{workload: rc.wl.name}
	var audit auditReport
	replay := 0
	// runPass drives one pass of the given number of replays, with the
	// host readings around it, and mirrors its writes.
	runPass := func(replays int) (passResult, error) {
		before, err := readCPUTimes()
		if err != nil {
			return passResult{}, err
		}
		calib := calibrate()
		cpu0, err := sp.cpuSeconds()
		if err != nil {
			return passResult{}, err
		}
		pr := d.pass(replays, replay)
		cpu1, err := sp.cpuSeconds()
		if err != nil {
			return passResult{}, fmt.Errorf("the server is gone: %w", err)
		}
		pr.cpuSec = cpu1 - cpu0
		pr.calibMs = (calib + calibrate()) / 2
		after, err := readCPUTimes()
		if err != nil {
			return passResult{}, err
		}
		pr.stealShare = stealShare(before, after)
		if mirror != nil {
			for g := replay; g < replay+replays; g++ {
				for u := range sc.units {
					for c := 0; c < sc.ingest.cycles; c++ {
						if _, _, err := mirror.Apply(ctx, sc.ingest.batch(u, c, g)); err != nil {
							return passResult{}, err
						}
						m.batches++
					}
				}
			}
		}
		replay += replays
		return pr, nil
	}

	// Priming: the one-off phase a workload needs before its steady
	// state, one replay that fills the cache.
	primeSec := 0.0
	if rc.wl.prime {
		pr, err := runPass(1)
		if err != nil {
			return nil, err
		}
		primeSec = pr.wall.Seconds()
		rep.Problems = append(rep.Problems, pr.failures...)
	}
	rep.Metrics["setup_s"] = median(startSecs) + primeSec
	rep.Notes["cold_starts"] = float64(len(startSecs))
	rep.Notes["prime_s"] = primeSec

	// Warm-up: one untimed replay; it also sizes the timed passes, whole
	// replays that together span -seconds.
	replays, passes := 1, 1
	if !rc.quick {
		pr, err := runPass(1)
		if err != nil {
			return nil, err
		}
		rep.Problems = append(rep.Problems, pr.failures...)
		passes = timedPasses
		if r := int(math.Round(float64(rc.seconds) / float64(passes) / pr.wall.Seconds())); r > 1 {
			replays = r
		}
	}
	rep.Notes["replays_per_pass"] = float64(replays)
	rep.Notes["requests_per_replay"] = float64(sc.requests())
	rep.Notes["visible_per_pass"] = float64(replays * sc.visibleRequests())

	results := make([]passResult, 0, passes)
	for i := 0; i < passes; i++ {
		c0, err := poll(ctx, sp.base, flags)
		if err != nil {
			return nil, err
		}
		pr, err := runPass(replays)
		if err != nil {
			return nil, err
		}
		c1, err := poll(ctx, sp.base, flags)
		if err != nil {
			return nil, err
		}
		m.cache.add(c0.cache, c1.cache)
		m.version = c1.store.Version
		rep.Metrics["livestore.dead_slot_share"] = ratio(uint64(c1.store.DeadSlots), uint64(c1.store.Slots))
		rep.Problems = append(rep.Problems, pr.failures...)
		if mirror != nil {
			// Reads answered while writes were landing can only be
			// checked for shape; the same reads re-issued now, with
			// nothing in flight, are checked against the mirror.
			audit.shape(pr.kept)
			again := d.reissue(pr.kept, quiesceAudits)
			view, ver := mirror.Snapshot()
			m.mirrorVer = ver
			audit.exact(ctx, again, view, false)
		} else if i == passes-1 {
			audit.exact(ctx, pr.kept, p.store, rc.wl.exact)
		}
		results = append(results, pr)
		rep.Passes = append(rep.Passes, pr.line())
	}

	if rss, err := sp.peakRSSMB(); err == nil {
		rep.Metrics["rss_peak_mb"] = rss
	} else {
		m.serverExited = true
	}
	if !sp.alive() {
		m.serverExited = true
	}

	for i := range results {
		pr := &results[i]
		rep.Attempted += pr.attempted()
		rep.Failed += pr.failed()
		for j := range pr.samples {
			s := &pr.samples[j]
			if s.status >= 500 {
				m.serverErrors++
			}
			if s.kind.isNav() && s.kind != opStart && s.ok {
				m.navOps++
				if s.prefetched {
					m.prefetched++
				}
			}
		}
	}
	m.failed = rep.Failed
	m.auditBad, m.audited = audit.bad, audit.checked
	rep.Failed += audit.bad
	rep.Problems = append(rep.Problems, audit.failures...)
	rep.Problems = append(rep.Problems, m.problems()...)

	var p50, p90, rps, cpu, calib, steal, wall []float64
	for _, l := range rep.Passes {
		p50, p90, rps, cpu = append(p50, l.P50), append(p90, l.P90), append(rps, l.RPS), append(cpu, l.CPUMs)
		calib, steal, wall = append(calib, l.CalibMs), append(steal, l.Steal), append(wall, l.WallS)
	}
	rep.Metrics["req_p50_ms"] = median(p50)
	rep.Metrics["req_p90_ms"] = median(p90)
	rep.Metrics["throughput_rps"] = median(rps)
	rep.Metrics["cpu_ms_per_req"] = median(cpu)
	rep.Metrics["score_ratio"] = mean(audit.ratios)
	rep.Metrics["host.calib_ms"] = median(calib)
	rep.Metrics["host.steal_share"] = median(steal)
	rep.Notes["audited"] = float64(audit.checked)
	rep.Notes["pass_wall_s"] = median(wall)
	rep.Notes["passes"] = float64(len(rep.Passes))
	// Client-side medians per kind of request, to read a mixed workload.
	for _, kind := range []opKind{opSelect, opTile, opStart, opPan, opZoomIn, opZoomOut, opPrefetch, opIngest} {
		vals := make([]float64, len(results))
		for i := range results {
			vals[i] = results[i].kindP50(kind)
		}
		if v := median(vals); v > 0 {
			rep.Notes["p50_ms_"+kind.String()] = v
		}
	}

	n := float64(len(results))
	rep.Metrics["tilecache.hit_ratio"] = m.cache.hitRatio()
	rep.Metrics["tilecache.fallback_share"] = m.cache.fallbackShare()
	rep.Metrics["tilecache.repair_dropped_per_serve"] = ratio(m.cache.repairDropped, m.cache.warmServes+m.cache.warmNavs)
	rep.Metrics["tilecache.cold_compute_ms"] = ratio(m.cache.coldSumNs, m.cache.coldCount) / 1e6
	rep.Metrics["tilecache.invalidations"] = float64(m.cache.invalidations) / n
	rep.Metrics["tilecache.evictions"] = float64(m.cache.evictions) / n
	rep.Metrics["tilecache.coalesced"] = float64(m.cache.coalesced) / n
	rep.Metrics["isos.prefetched_share"] = ratio(uint64(m.prefetched), uint64(m.navOps))

	if rc.trace {
		if err := traceRun(ctx, rc, sc, dataPath, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// reissue sends up to n of the kept stateless reads again and returns
// the fresh responses.
func (d *driver) reissue(ks []kept, n int) []kept {
	var out []kept
	var cr clientRun
	for i := range ks {
		q := ks[i].req
		if len(out) == n {
			break
		}
		if q.kind != opSelect && q.kind != opTile {
			continue
		}
		plain := *q
		plain.revalidate = false
		s, status, err := d.do(0, &cr, &plain, "", 0)
		if err != nil || !s.ok {
			continue
		}
		out = append(out, kept{req: q, status: status, body: append([]byte(nil), cr.buf.Bytes()...)})
	}
	return out
}
