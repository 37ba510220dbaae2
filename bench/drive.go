package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout is the client's patience. The server's own deadline is
// 10 s; admission keeps every scripted request far below both, so
// reaching either is a failure, not a sample.
const requestTimeout = 12 * time.Second

// sample is the outcome of one request of a pass.
type sample struct {
	kind    opKind
	visible bool
	ok      bool
	status  int
	lat     time.Duration
	// prefetched echoes the response's own flag: bounds seeded the
	// navigation.
	prefetched bool
}

// kept is an audited read's response, held for validation after the
// pass.
type kept struct {
	req    *request
	status int
	body   []byte
}

// passResult is one pass: every sample plus the pass-level readings the
// metrics derive from.
type passResult struct {
	samples []sample
	kept    []kept
	wall    time.Duration
	// cpuSec is the server process's user+system CPU over the pass.
	cpuSec float64
	// calibMs is the host reference loop timed right before and after
	// the pass (their mean); stealShare the host's steal time share.
	calibMs    float64
	stealShare float64
	failures   []string
}

func (p *passResult) attempted() int { return len(p.samples) }

func (p *passResult) failed() int {
	n := 0
	for i := range p.samples {
		if !p.samples[i].ok {
			n++
		}
	}
	return n
}

// latenciesMs returns the sorted latencies of the successful requests
// that match; a failed request has no latency and misses.
func (p *passResult) latenciesMs(match func(*sample) bool) []float64 {
	var out []float64
	for i := range p.samples {
		if s := &p.samples[i]; s.ok && match(s) {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// kindP50 is the median latency of the pass's successful requests of
// one kind; 0 when it sent none.
func (p *passResult) kindP50(kind opKind) float64 {
	return percentile(p.latenciesMs(func(s *sample) bool { return s.kind == kind }), 50)
}

// passLine is one timed pass reduced to the values the run's metrics are
// taken over, as printed.
type passLine struct {
	// Visible counts the successful user-visible requests.
	Visible int     `json:"visible"`
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	// RPS is user-visible requests per second of pass wall time.
	RPS float64 `json:"rps"`
	// CPUMs spreads all server CPU of the pass — prefetch, tile
	// recompute and writes included — over the user-visible requests.
	CPUMs   float64 `json:"cpu_ms_per_req"`
	WallS   float64 `json:"wall_s"`
	CalibMs float64 `json:"calib_ms"`
	Steal   float64 `json:"steal_share"`
}

// line summarizes the pass.
func (p *passResult) line() passLine {
	lat := p.latenciesMs(func(s *sample) bool { return s.visible })
	l := passLine{
		Visible: len(lat), P50: percentile(lat, 50), P90: percentile(lat, 90),
		WallS: p.wall.Seconds(), CalibMs: p.calibMs, Steal: p.stealShare,
	}
	if p.wall > 0 {
		l.RPS = float64(len(lat)) / p.wall.Seconds()
	}
	if len(lat) > 0 {
		l.CPUMs = p.cpuSec * 1000 / float64(len(lat))
	}
	return l
}

// driver replays a script against a running server from `clients`
// closed-loop goroutines, each with one keep-alive connection: a client
// sends its next request only when the previous reply has been read in
// full, so no timer sits inside a measured interval.
type driver struct {
	base string
	sc   *script
	// lanes pins unit i to client i for every replay instead of letting
	// clients pull units from a common queue; needed when a unit's
	// replays must not overlap (mixed_live's write batches refer to the
	// previous batch of the same unit).
	lanes bool
	// etags holds the last ETag seen per tile slot.
	etags []atomic.Pointer[string]
	hcs   [clients]*http.Client
}

func newDriver(base string, sc *script) *driver {
	d := &driver{base: base, sc: sc, lanes: sc.ingest != nil, etags: make([]atomic.Pointer[string], sc.etagSlots)}
	for i := range d.hcs {
		d.hcs[i] = &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		}
	}
	return d
}

func (d *driver) close() {
	for _, hc := range d.hcs {
		hc.CloseIdleConnections()
	}
}

// maxFailureNotes bounds how many failures a pass describes.
const maxFailureNotes = 5

// clientRun is one client's share of a pass.
type clientRun struct {
	samples  []sample
	kept     []kept
	failures []string
	buf      bytes.Buffer
}

// pass replays the script `replays` times. firstReplay numbers the
// first of them globally (write batches differ per replay); audited
// responses are kept from the pass's first replay only.
func (d *driver) pass(replays, firstReplay int) passResult {
	units := d.sc.units
	var next atomic.Int64
	total := int64(replays * len(units))
	runs := make([]clientRun, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range d.hcs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cr := &runs[c]
			if d.lanes {
				for r := 0; r < replays; r++ {
					for u := c; u < len(units); u += clients {
						d.runUnit(c, cr, &units[u], firstReplay+r, r == 0)
					}
				}
				return
			}
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				r := int(i) / len(units)
				d.runUnit(c, cr, &units[int(i)%len(units)], firstReplay+r, r == 0)
			}
		}(c)
	}
	wg.Wait()
	res := passResult{wall: time.Since(start)}
	for c := range runs {
		res.samples = append(res.samples, runs[c].samples...)
		res.kept = append(res.kept, runs[c].kept...)
		res.failures = append(res.failures, runs[c].failures...)
	}
	return res
}

// runUnit executes one unit's requests in order on client c.
func (d *driver) runUnit(c int, cr *clientRun, u *unit, replay int, keep bool) {
	sid := ""
	for i := range u.reqs {
		q := &u.reqs[i]
		s, status, err := d.do(c, cr, q, sid, replay)
		if err != nil && len(cr.failures) < maxFailureNotes {
			cr.failures = append(cr.failures, fmt.Sprintf("%s %s: %v", q.method, q.path, err))
		}
		body := cr.buf.Bytes()
		if s.ok {
			switch {
			case q.kind == opCreateSession:
				var created struct {
					SessionID string `json:"sessionId"`
				}
				if err := json.Unmarshal(body, &created); err == nil {
					sid = created.SessionID
				}
			case q.kind.isNav():
				s.prefetched = bytes.Contains(body, []byte(`"prefetched":true`))
			}
			if keep && q.audit {
				cr.kept = append(cr.kept, kept{req: q, status: status, body: append([]byte(nil), body...)})
			}
		}
		cr.samples = append(cr.samples, s)
	}
}

// do sends one request and reads the reply in full into cr.buf. The
// measured interval is client send → last body byte.
func (d *driver) do(c int, cr *clientRun, q *request, sid string, replay int) (sample, int, error) {
	s := sample{kind: q.kind, visible: q.visible}
	url := d.base + q.path
	switch {
	case q.kind == opDeleteSession:
		url = d.base + "/sessions/" + sid
	case q.kind.isNav() || q.kind == opPrefetch:
		url = d.base + "/sessions/" + sid + q.path
	}
	body := q.body
	if q.kind == opIngest {
		body = d.sc.ingest.body(q.unit, q.cycle, replay)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(q.method, url, rd)
	if err != nil {
		return s, 0, err
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if q.kind == opTile && q.revalidate {
		if tag := d.etags[q.etagSlot].Load(); tag != nil {
			hr.Header.Set("If-None-Match", *tag)
		}
	}
	cr.buf.Reset()
	t0 := time.Now()
	resp, err := d.hcs[c].Do(hr)
	if err != nil {
		return s, 0, err
	}
	_, err = cr.buf.ReadFrom(resp.Body)
	s.lat = time.Since(t0)
	// Body already read in full.
	resp.Body.Close() //geolint:errok
	if err != nil {
		return s, resp.StatusCode, err
	}
	s.status = resp.StatusCode
	if (resp.StatusCode < 200 || resp.StatusCode > 299) && resp.StatusCode != http.StatusNotModified {
		return s, resp.StatusCode, fmt.Errorf("status %d: %.200s", resp.StatusCode, cr.buf.Bytes())
	}
	s.ok = true
	if q.kind == opTile && resp.StatusCode == http.StatusOK {
		if tag := resp.Header.Get("ETag"); tag != "" {
			d.etags[q.etagSlot].Store(&tag)
		}
	}
	return s, resp.StatusCode, nil
}
