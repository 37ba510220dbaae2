package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"geosel/internal/engine"
	"geosel/internal/livestore"
)

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {0, 1}, {91, 10}} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if in[0] != 9 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// A failed request has no latency: it must not count as a fast one.
func TestFailedRequestsMissLatency(t *testing.T) {
	p := passResult{wall: time.Second, samples: []sample{
		{visible: true, ok: true, lat: 2 * time.Millisecond},
		{visible: true, ok: false, lat: time.Microsecond},
		{visible: false, ok: true, lat: time.Microsecond},
	}}
	l := p.line()
	if l.Visible != 1 || l.P50 != 2 || l.P90 != 2 {
		t.Errorf("line = %+v, want one visible request of 2 ms", l)
	}
	if p.failed() != 1 || p.attempted() != 3 {
		t.Errorf("failed/attempted = %d/%d, want 1/3", p.failed(), p.attempted())
	}
	if l.RPS != 1 {
		t.Errorf("throughput = %v, want 1", l.RPS)
	}
}

func TestLogGridIsSeedFreeAndInside(t *testing.T) {
	g := logGrid(100, 1000, 100)
	if g[0] < 100 || g[len(g)-1] > 1000 {
		t.Errorf("grid leaves [100, 1000]: %d … %d", g[0], g[len(g)-1])
	}
	for i := 1; i < len(g); i++ {
		if g[i] < g[i-1] {
			t.Fatalf("grid not ascending at %d", i)
		}
	}
}

func buildQuick(t *testing.T, wl workload, seed int64) *script {
	t.Helper()
	p, err := newPlan(seed, quickShape)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := wl.build(p)
	if err != nil {
		t.Fatalf("%s seed %d: %v", wl.name, seed, err)
	}
	return sc
}

func TestScriptsAreAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := buildQuick(t, wl, 3).encode(), buildQuick(t, wl, 3).encode(), buildQuick(t, wl, 4).encode()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 3 differ", wl.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 3 and 4 generate the same script", wl.name)
		}
	}
}

// The seed orders and deals; where clients look belongs to the fixture.
func TestPlacesDoNotDependOnTheSeed(t *testing.T) {
	places := func(sc *script) []string {
		var out []string
		for i := range sc.units {
			for j := range sc.units[i].reqs {
				// Which tile of a viewport is fetched is the seed's choice.
				if q := &sc.units[i].reqs[j]; q.kind.isRead() && q.kind != opTile {
					out = append(out, q.kind.String()+fmt.Sprint(q.region))
				}
			}
		}
		sort.Strings(out)
		return out
	}
	for _, wl := range workloads {
		if a, b := places(buildQuick(t, wl, 3)), places(buildQuick(t, wl, 4)); !slices.Equal(a, b) {
			t.Errorf("%s: seeds 3 and 4 look at different places", wl.name)
		}
	}
}

func TestEveryUnitOfWorkIsAdmitted(t *testing.T) {
	for _, wl := range workloads {
		sc := buildQuick(t, wl, 5)
		if len(sc.admitted) == 0 {
			t.Errorf("%s: nothing recorded as admitted", wl.name)
		}
		for _, a := range sc.admitted {
			if a.count < a.lo || a.count > a.hi {
				t.Errorf("%s: %s with %d objects outside [%d, %d]", wl.name, a.what, a.count, a.lo, a.hi)
			}
		}
	}
}

func TestRegionWithCountHitsItsTarget(t *testing.T) {
	p, err := newPlan(2, quickShape)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{40, 90, 200} {
		r, err := p.regionWithCount(target)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.store.CountRegion(r); got < target-1 || got > target+1 {
			t.Errorf("target %d: region holds %d", target, got)
		}
	}
}

// Every batch must find all its targets and commit exactly one epoch,
// in whichever order the two clients' batches land.
func TestIngestBatchesNeverMiss(t *testing.T) {
	sc := buildQuick(t, workloads[3], 6)
	p, err := newPlan(6, quickShape)
	if err != nil {
		t.Fatal(err)
	}
	store, err := livestore.New(p.col, engine.Config{Metric: metric})
	if err != nil {
		t.Fatal(err)
	}
	batches := uint64(0)
	for g := 0; g < 3; g++ {
		// Unit 1 before unit 0: the reverse of the mirror's order.
		for u := len(sc.units) - 1; u >= 0; u-- {
			for c := 0; c < sc.ingest.cycles; c++ {
				_, out, err := store.Apply(context.Background(), sc.ingest.batch(u, c, g))
				if err != nil {
					t.Fatal(err)
				}
				batches++
				if out.Missed != 0 || out.Inserted != batchInserts || out.Updated != batchUpdates || out.Deleted != batchDeletes {
					t.Fatalf("replay %d unit %d cycle %d: outcome %+v", g, u, c, out)
				}
			}
		}
	}
	if _, ver := store.Snapshot(); ver != batches {
		t.Errorf("version %d after %d batches", ver, batches)
	}
}

// Each fail-loud check must fire on the condition it guards.
func TestFailLoudChecksFire(t *testing.T) {
	healthy := func(name string) measured {
		m := measured{workload: name, audited: 10, navOps: 100, prefetched: 100}
		m.cache = cacheDelta{requests: 100, warmServes: 100, hits: 1000, misses: 1, invalidations: 5, evictions: 5}
		m.version, m.mirrorVer, m.batches = 7, 7, 7
		return m
	}
	for _, wl := range workloads {
		m := healthy(wl.name)
		if got := m.problems(); len(got) != 0 {
			t.Errorf("%s: healthy run reports %v", wl.name, got)
		}
	}
	cases := []struct {
		name    string
		wl      string
		break_  func(m *measured)
		mention string
	}{
		{"cold cache", "viewport_warm", func(m *measured) { m.cache.misses = 100 }, "hit_ratio"},
		{"fallbacks", "viewport_warm", func(m *measured) { m.cache.fallbacks = 10 }, "fallback_share"},
		{"no invalidation", "mixed_live", func(m *measured) { m.cache.invalidations = 0 }, "invalidations = 0"},
		{"no eviction", "mixed_live", func(m *measured) { m.cache.evictions = 0 }, "evictions = 0"},
		{"lost batch", "mixed_live", func(m *measured) { m.version = 6 }, "store version"},
		{"mirror drift", "mixed_live", func(m *measured) { m.mirrorVer = 8 }, "store version"},
		{"no bounds", "nav_session", func(m *measured) { m.prefetched = 0 }, "prefetched_share = 0"},
		{"5xx", "select_cold", func(m *measured) { m.serverErrors = 1 }, "5xx"},
		{"server gone", "select_cold", func(m *measured) { m.serverExited = true }, "exited"},
		{"failed request", "select_cold", func(m *measured) { m.failed = 2 }, "requests failed"},
		{"bad response", "select_cold", func(m *measured) { m.auditBad = 1 }, "failed validation"},
		{"nothing audited", "select_cold", func(m *measured) { m.audited = 0 }, "no response was audited"},
	}
	for _, tc := range cases {
		m := healthy(tc.wl)
		tc.break_(&m)
		got := strings.Join(m.problems(), "\n")
		if !strings.Contains(got, tc.mention) {
			t.Errorf("%s: problems %q do not mention %q", tc.name, got, tc.mention)
		}
	}
}

// Validation must reject a response that breaks the contract.
func TestShapeCheckRejectsBadSelections(t *testing.T) {
	q := selectRequest(unitSquare)
	k := &kept{req: &q}
	close_ := []member{{id: 1, loc: q.region.Min}, {id: 2, loc: q.region.Min}}
	if err := checkShape(k, close_); err == nil {
		t.Error("two co-located objects pass the θ check")
	}
	many := make([]member, selK+1)
	for i := range many {
		many[i] = member{id: i, loc: q.region.Min}
	}
	if err := checkShape(k, many); err == nil {
		t.Error("k+1 objects pass the size check")
	}
}

// BENCHMARK.json is the contract later changes are held to; the names,
// units, directions and bounds it lists must be the ones the harness
// prints.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: listed %q, harness has %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, harness has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: listed %+v, harness has %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, harness has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: listed %+v, harness has %+v", i, m, d)
		}
	}
}

// The smoke: the real server, all four workloads, end-to-end and traced,
// in the -quick shape.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the real server")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	bin, err := buildServer(root, out)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, trace := range []bool{false, true} {
		for _, wl := range workloads {
			rc := &runConfig{wl: wl, seed: 1, seconds: 1, quick: true, trace: trace, root: root, outDir: out, serverBin: bin}
			rep, err := runWorkload(context.Background(), rc)
			if err != nil {
				t.Fatalf("%s: %v", wl.name, err)
			}
			if len(rep.Problems) != 0 || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%t: attempted %d, failed %d, problems %v", wl.name, trace, rep.Attempted, rep.Failed, rep.Problems)
			}
			for _, d := range endToEnd {
				if v := rep.Metrics[d.name]; !(v > 0) {
					t.Errorf("%s: %s = %v, want > 0", wl.name, d.name, v)
				}
			}
			if !trace {
				continue
			}
			if v := rep.Metrics["server.handler_ms"]; !(v > 0) {
				t.Errorf("%s: traced run reports server.handler_ms = %v", wl.name, v)
			}
			raw, err := os.ReadFile(filepath.Join(out, "trace-"+wl.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 {
				t.Errorf("%s: no spans written", wl.name)
			}
		}
	}
	// About 3 s on the reference box, 11 s under the race detector; the
	// limit only catches a smoke that has stopped being quick.
	if took := time.Since(start); took > 30*time.Second {
		t.Errorf("smoke took %v, want a few seconds", took)
	}
}
