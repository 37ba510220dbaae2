package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/livestore"
	"geosel/internal/tilecache"
)

// opKind is what one scripted request asks of the server.
type opKind uint8

const (
	opSelect opKind = iota
	opTile
	opCreateSession
	opDeleteSession
	opStart
	opPan
	opZoomIn
	opZoomOut
	opPrefetch
	opIngest
)

var opNames = [...]string{"select", "tile", "create", "delete", "start", "pan", "zoomin", "zoomout", "prefetch", "ingest"}

func (k opKind) String() string { return opNames[k] }

// isNav reports a session navigation, the user-visible session ops.
func (k opKind) isNav() bool { return k >= opStart && k <= opZoomOut }

// isRead reports a request whose response carries a selection.
func (k opKind) isRead() bool { return k == opSelect || k == opTile || k.isNav() }

// request is one scripted HTTP request plus what the harness needs to
// replay it in process and to validate its response.
type request struct {
	kind   opKind
	method string
	// path is the URL path; for session ops it is the part after
	// /sessions/{id}, the id being known only at run time.
	path string
	body []byte
	// visible marks a request a map user waits for: it counts toward
	// latency and throughput. The rest (session bookkeeping, the
	// prefetch that stands in for think time, writes) only count toward
	// pass wall time and server CPU.
	visible bool
	// audit marks a read whose response is kept and validated after the
	// pass.
	audit bool

	// region and theta are what a read selects over and under.
	region geo.Rect
	theta  float64
	// delta is a pan's displacement; ops the operations a prefetch
	// covers.
	delta geo.Point
	ops   []geo.Op
	// tile is the tile of an opTile; revalidate sends the last ETag seen
	// for etagSlot as If-None-Match.
	tile       tilecache.Tile
	revalidate bool
	etagSlot   int
	// unit and cycle locate an opIngest's batch in the ingest plan; its
	// body depends on the replay and is generated when sent.
	unit, cycle int
}

// unit is a sequence one client executes in order, sharing one session.
// Clients pull whole units from a common queue.
type unit struct {
	reqs []request
}

// script is one pass of a workload.
type script struct {
	units []unit
	// etagSlots is the number of distinct tiles the script fetches.
	etagSlots int
	// ingest generates the write batches; nil for read-only workloads.
	ingest *ingestPlan
	// window is the city window of the tile-cache workloads.
	window geo.Rect
	// admitted lists every unit of selection work the script implies
	// with its object count, for the admission test.
	admitted []admission
}

// admission records one admitted unit of selection work.
type admission struct {
	what   string
	count  int
	lo, hi int
}

func (s *script) requests() int {
	n := 0
	for i := range s.units {
		n += len(s.units[i].reqs)
	}
	return n
}

func (s *script) visibleRequests() int {
	n := 0
	for i := range s.units {
		for j := range s.units[i].reqs {
			if s.units[i].reqs[j].visible {
				n++
			}
		}
	}
	return n
}

// markAudits flags every auditEvery-th read in script order.
func (s *script) markAudits() {
	reads := 0
	for i := range s.units {
		for j := range s.units[i].reqs {
			r := &s.units[i].reqs[j]
			if !r.kind.isRead() {
				continue
			}
			r.audit = reads%auditEvery == 0
			reads++
		}
	}
}

// encode serializes the script, including the first two replays' write
// batches, so two generations can be compared byte for byte.
func (s *script) encode() []byte {
	var b bytes.Buffer
	for i := range s.units {
		fmt.Fprintf(&b, "unit %d\n", i)
		for j := range s.units[i].reqs {
			r := &s.units[i].reqs[j]
			fmt.Fprintf(&b, "%s %s %s %s v=%t a=%t rv=%t slot=%d\n", r.kind, r.method, r.path, r.body, r.visible, r.audit, r.revalidate, r.etagSlot)
			if r.kind == opIngest {
				for g := 0; g < 2; g++ {
					b.Write(s.ingest.body(r.unit, r.cycle, g))
					b.WriteByte('\n')
				}
			}
		}
	}
	return b.Bytes()
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func rectJSON(r geo.Rect) string {
	return `{"minX":` + fmtFloat(r.Min.X) + `,"minY":` + fmtFloat(r.Min.Y) +
		`,"maxX":` + fmtFloat(r.Max.X) + `,"maxY":` + fmtFloat(r.Max.Y) + `}`
}

func selectRequest(r geo.Rect) request {
	body := `{"region":` + rectJSON(r) + `,"k":` + strconv.Itoa(selK) + `,"thetaFrac":` + fmtFloat(selThetaFrac) + `}`
	return request{
		kind: opSelect, method: "POST", path: "/select", body: []byte(body),
		visible: true, region: r, theta: selThetaFrac * r.Width(),
	}
}

func tileRequest(t tilecache.Tile, slot int, revalidate bool) request {
	return request{
		kind: opTile, method: "GET", path: fmt.Sprintf("/tiles/%d/%d/%d", t.Z, t.X, t.Y),
		visible: true, region: t.Rect(), theta: tilecache.DefaultTileTheta(t.Z, selThetaFrac),
		tile: t, etagSlot: slot, revalidate: revalidate,
	}
}

func createSessionRequest() request {
	body := `{"k":` + strconv.Itoa(selK) + `,"thetaFrac":` + fmtFloat(selThetaFrac) + `}`
	return request{kind: opCreateSession, method: "POST", path: "/sessions", body: []byte(body)}
}

func deleteSessionRequest() request {
	return request{kind: opDeleteSession, method: "DELETE"}
}

// navRequest builds a session navigation arriving at region r; d is the
// displacement of a pan.
func navRequest(kind opKind, r geo.Rect, d geo.Point) request {
	q := request{kind: kind, method: "POST", path: "/" + kind.String(), visible: true, region: r, theta: selThetaFrac * r.Width(), delta: d}
	if kind == opPan {
		q.body = []byte(`{"dx":` + fmtFloat(d.X) + `,"dy":` + fmtFloat(d.Y) + `}`)
	} else {
		q.body = []byte(`{"region":` + rectJSON(r) + `}`)
	}
	return q
}

var prefetchOpNames = map[geo.Op]string{geo.OpZoomIn: "zoomin", geo.OpZoomOut: "zoomout", geo.OpPan: "pan"}

func prefetchRequest(ops ...geo.Op) request {
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = prefetchOpNames[op]
	}
	// A map of strings always marshals.
	body, _ := json.Marshal(map[string][]string{"ops": names}) //geolint:errok
	return request{kind: opPrefetch, method: "POST", path: "/prefetch", body: body, ops: ops}
}

// shuffle permutes reqs with the plan's generator.
func (p *plan) shuffle(reqs []request) {
	p.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
}

// singles wraps each request in a unit of its own.
func singles(reqs []request) []unit {
	units := make([]unit, len(reqs))
	for i := range reqs {
		units[i] = unit{reqs: reqs[i : i+1 : i+1]}
	}
	return units
}

// buildSelectCold scripts stateless /select requests whose object
// counts lie on a fixed log-uniform grid, in seeded order.
func buildSelectCold(p *plan) (*script, error) {
	sh := p.shape
	s := &script{}
	var reqs []request
	for _, target := range logGrid(sh.coldCountLo, sh.coldCountHi, sh.coldRequests) {
		r, err := p.regionWithCount(target)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, selectRequest(r))
		s.admitted = append(s.admitted, admission{"viewport", p.store.CountRegion(r), sh.coldCountLo, sh.coldCountHi})
	}
	p.shuffle(reqs)
	s.units = singles(reqs)
	s.markAudits()
	return s, nil
}

// Navigation geometry: a pan keeps 70 % of the view, a zoom changes the
// side by 4/3, so a pan / zoom-in / pan / zoom-out cycle returns to the
// starting scale and every zoom-out stays inside the 2× envelope the
// server prefetches for.
const (
	navPanFrac = 0.3
	navZoom    = 0.75
)

// navCycle is the order of operations after start.
var navCycle = [...]opKind{opPan, opZoomIn, opPan, opZoomOut}

// nextOp maps a navigation to the one operation its preceding prefetch
// has to cover.
var nextOp = map[opKind]geo.Op{opPan: geo.OpPan, opZoomIn: geo.OpZoomIn, opZoomOut: geo.OpZoomOut}

// walk draws steps navigations from start and returns the requests,
// prefetch before every step, or ok = false when a visited region
// leaves the unit square or fails admit.
func (p *plan) walk(start geo.Rect, steps int, admit func(geo.Rect) bool) ([]request, bool) {
	if !admit(start) {
		return nil, false
	}
	cur := start
	reqs := []request{navRequest(opStart, cur, geo.Point{})}
	for i := 0; i < steps; i++ {
		kind := navCycle[i%len(navCycle)]
		var d geo.Point
		switch kind {
		case opPan:
			shift := navPanFrac * cur.Width()
			if p.places.Intn(2) == 0 {
				shift = -shift
			}
			if p.places.Intn(2) == 0 {
				d = geo.Pt(shift, 0)
			} else {
				d = geo.Pt(0, shift)
			}
			cur = cur.Translate(d)
		case opZoomIn:
			side := cur.Width() * navZoom
			slack := cur.Width() - side
			at := geo.Pt(cur.Min.X+p.places.Float64()*slack, cur.Min.Y+p.places.Float64()*slack)
			cur = geo.Rect{Min: at, Max: geo.Pt(at.X+side, at.Y+side)}
		case opZoomOut:
			side := cur.Width() / navZoom
			slack := side - cur.Width()
			at := geo.Pt(cur.Min.X-p.places.Float64()*slack, cur.Min.Y-p.places.Float64()*slack)
			cur = geo.Rect{Min: at, Max: geo.Pt(at.X+side, at.Y+side)}
		}
		if !unitSquare.ContainsRect(cur) || !admit(cur) {
			return nil, false
		}
		reqs = append(reqs, prefetchRequest(nextOp[kind]), navRequest(kind, cur, d))
	}
	return reqs, true
}

// maxWalkTries bounds the redraws of one session's walk.
const maxWalkTries = 2000

// admittedWalk redraws a start region and a walk from it until every
// visited region passes admit.
func (p *plan) admittedWalk(start func() (geo.Rect, error), steps int, admit func(geo.Rect) bool) ([]request, error) {
	for try := 0; try < maxWalkTries; try++ {
		r, err := start()
		if err != nil {
			return nil, err
		}
		if nav, ok := p.walk(r, steps, admit); ok {
			return nav, nil
		}
	}
	return nil, fmt.Errorf("no admitted walk of %d steps after %d tries", steps, maxWalkTries)
}

// session wraps navigation requests in the session's lifetime.
func session(nav []request) unit {
	reqs := append([]request{createSessionRequest()}, nav...)
	return unit{reqs: append(reqs, deleteSessionRequest())}
}

// envelope is the square of three times r's side around r: what a
// prefetch for a pan or a zoom-out works on. Its cost is the square of
// the envelope's object count, so walks admit the envelope too.
func envelope(r geo.Rect) geo.Rect { return r.Expand(r.Width()) }

// buildNavSession scripts sessions of start plus navSteps navigations.
// The client prefetches the one operation it is about to perform before
// every step — the stand-in for think time — so whether bounds are
// present never depends on timing.
func buildNavSession(p *plan) (*script, error) {
	sh := p.shape
	s := &script{}
	admit := func(r geo.Rect) bool {
		n, e := p.store.CountRegion(r), p.store.CountRegion(envelope(r))
		return n >= sh.navAdmitLo && n <= sh.navAdmitHi && e <= sh.navEnvHi
	}
	for _, target := range logGrid(sh.navStartLo, sh.navStartHi, sh.navSessions) {
		nav, err := p.admittedWalk(func() (geo.Rect, error) { return p.regionWithCount(target) }, sh.navSteps, admit)
		if err != nil {
			return nil, err
		}
		for i := range nav {
			if r := nav[i].region; nav[i].kind.isNav() {
				s.admitted = append(s.admitted,
					admission{"viewport", p.store.CountRegion(r), sh.navAdmitLo, sh.navAdmitHi},
					admission{"envelope", p.store.CountRegion(envelope(r)), 0, sh.navEnvHi})
			}
		}
		s.units = append(s.units, session(nav))
	}
	p.rng.Shuffle(len(s.units), func(i, j int) { s.units[i], s.units[j] = s.units[j], s.units[i] })
	s.markAudits()
	return s, nil
}

// admitTiles records the covering tiles of r in the script's admission
// list.
func (s *script) admitTiles(p *plan, r geo.Rect) {
	for _, t := range coveringTiles(r) {
		s.admitted = append(s.admitted, admission{"tile", p.store.CountRegion(t.Rect()), p.shape.tileLo, p.shape.tileHi})
	}
}

// tileSlots hands out one ETag slot per distinct tile.
type tileSlots map[tilecache.Tile]int

func (ts tileSlots) slot(t tilecache.Tile) int {
	if i, ok := ts[t]; ok {
		return i
	}
	ts[t] = len(ts)
	return len(ts) - 1
}

// buildViewportWarm scripts 75 % viewport /select and 25 % GET /tiles,
// half of the latter revalidating, all inside the city window and all
// over admitted tiles. The script writes nothing, so after one priming
// replay every tile it touches is cached.
func buildViewportWarm(p *plan) (*script, error) {
	sh := p.shape
	s := &script{window: p.cityWindow(sh.tileLo, sh.tileHi)}
	nTiles := sh.warmRequests / 4
	var reqs []request
	var views []geo.Rect
	for i := 0; i < sh.warmRequests-nTiles; i++ {
		r, err := p.cityViewport(s.window, viewportSides[i%len(viewportSides)])
		if err != nil {
			return nil, err
		}
		views = append(views, r)
		s.admitTiles(p, r)
		reqs = append(reqs, selectRequest(r))
	}
	slots := tileSlots{}
	for i := 0; i < nTiles; i++ {
		cover := coveringTiles(views[p.rng.Intn(len(views))])
		t := cover[p.rng.Intn(len(cover))]
		reqs = append(reqs, tileRequest(t, slots.slot(t), i%2 == 1))
	}
	s.etagSlots = len(slots)
	p.shuffle(reqs)
	s.units = singles(reqs)
	s.markAudits()
	return s, nil
}

// mixedCycle is the fixed order of one client's ten operations: six
// viewport selects, two session navigations, one tile, one write.
var mixedCycle = [...]opKind{opSelect, opSelect, opPan, opSelect, opTile, opSelect, opSelect, opPan, opSelect, opIngest}

// Of the mixedSelects selects in mixedCycle, mixedCold go to the cold
// stream — viewports placed anywhere in the window, the long tail, whose
// tiles are mostly evicted before they are asked for again — and the
// rest go round the client's pool of mixedHot viewports, the popular
// places, whose tiles stay cached unless a write dirties them. Fixing
// the split keeps the median request inside the warm population and the
// 90th percentile inside the cold one: hot selects, tiles and zoom steps
// are about 70 % of the user-visible requests, the cold stream, pans and
// hot selects that meet a dirty tile about 30 %. When the hit ratio
// alone decides the split, the median sits on the boundary between the
// two populations and jumps between 0.5 and 2.5 ms from pass to pass.
const (
	mixedSelects = 6
	mixedCold    = 1
	mixedHot     = 3
)

// The hot pools use the viewport sides that stitch zoom-6 tiles, the
// cold stream and the sessions those that stitch zoom-5 tiles. A write
// batch dirties a neighbourhood, which is one or two tiles at either
// zoom: a sixteenth of the window's zoom-5 tiles at most, a sixty-fourth
// of its zoom-6 tiles, so nine hot selects in ten find their tiles
// clean. The cold stream and the sessions together touch about twice as
// many tile keys as the cache holds.
var (
	hotSides  = viewportSides[:2]
	coldSides = viewportSides[2:]
)

// mixedNavSide is the side a mixed_live session starts at; its zoom-ins
// (to 0.033) stay on zoom-5 tiles.
const mixedNavSide = 0.044

// buildMixedLive scripts one unit per client: a session that lives for
// the whole pass, and mixedCycles repetitions of mixedCycle. Writes are
// coupled to the operation count, not to time, so the read:write ratio
// is exact whatever the server's speed.
func buildMixedLive(p *plan) (*script, error) {
	sh := p.shape
	s := &script{window: p.cityWindow(sh.tileLo, sh.tileHi)}
	admit := func(r geo.Rect) bool {
		n := p.store.CountRegion(r)
		return s.window.ContainsRect(r) && n >= sh.tileLo && n <= sh.regionHi && p.tilesAdmitted(r, sh.tileLo, sh.tileHi)
	}
	// draw places n viewports, cycling through sides, and deals them in
	// seeded order.
	draw := func(sides []float64, n int) ([]geo.Rect, error) {
		out := make([]geo.Rect, n)
		for i := range out {
			var err error
			if out[i], err = p.cityViewport(s.window, sides[i%len(sides)]); err != nil {
				return nil, err
			}
			s.admitTiles(p, out[i])
		}
		p.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out, nil
	}
	hots, err := draw(hotSides, clients*mixedHot)
	if err != nil {
		return nil, err
	}
	colds, err := draw(coldSides, clients*sh.mixedCycles*mixedCold)
	if err != nil {
		return nil, err
	}
	slots := tileSlots{}
	for c := 0; c < clients; c++ {
		hot := hots[c*mixedHot : (c+1)*mixedHot]
		// With -tilecache a navigation is served warm, by stitching the
		// covering tiles under the session's forced set and candidates
		// (isos.Warmer), and never reads prefetched bounds: the walk's
		// prefetches are dropped, and the server runs with
		// -async-prefetch=false so that it does not compute them either.
		walk, err := p.admittedWalk(func() (geo.Rect, error) { return p.cityViewport(s.window, mixedNavSide) }, 2*sh.mixedCycles, admit)
		if err != nil {
			return nil, err
		}
		var nav []request
		for _, q := range walk {
			if q.kind.isNav() {
				s.admitTiles(p, q.region)
				nav = append(nav, q)
			}
		}
		reqs := []request{nav[0]}
		nav = nav[1:]
		hotAt := 0
		for cycle := 0; cycle < sh.mixedCycles; cycle++ {
			nthSelect := 0
			for _, kind := range mixedCycle {
				switch kind {
				case opSelect:
					r := hot[hotAt%mixedHot]
					if nthSelect%(mixedSelects/mixedCold) == mixedSelects/mixedCold-1 {
						r, colds = colds[0], colds[1:]
					} else {
						hotAt++
					}
					nthSelect++
					reqs = append(reqs, selectRequest(r))
				case opPan:
					reqs = append(reqs, nav[0])
					nav = nav[1:]
				case opTile:
					cover := coveringTiles(hot[hotAt%mixedHot])
					t := cover[p.rng.Intn(len(cover))]
					reqs = append(reqs, tileRequest(t, slots.slot(t), cycle%2 == 1))
				case opIngest:
					reqs = append(reqs, request{kind: opIngest, method: "POST", path: "/ingest", unit: c, cycle: cycle})
				}
			}
		}
		s.units = append(s.units, session(reqs))
	}
	s.etagSlots = len(slots)
	s.ingest = newIngestPlan(p, s.window, sh.mixedCycles)
	s.markAudits()
	return s, nil
}

// Batch composition: 3:4:3 insert/update/delete over 32 mutations.
const (
	batchInserts = 10
	batchUpdates = 12
	batchDeletes = 10
)

// idStride separates the fresh-id ranges of the clients' units.
const idStride = 1 << 24

// ingestPlan generates the write batches of mixed_live as a pure
// function of (unit, cycle, replay), so the server, the harness's
// mirror store and the in-process replays all see the same mutations.
// Id ranges are disjoint per unit and per batch: inserts take fresh
// ids, deletes remove what the same unit inserted one batch earlier
// (the first batch deletes reserved dataset objects), updates cycle
// over dataset objects reserved for the unit. Every mutation therefore
// finds its target, in any interleaving of the clients.
type ingestPlan struct {
	seed   int64
	col    *geodata.Collection
	window geo.Rect
	cycles int
	// blocks are per-unit reserved dataset objects (by position), grouped
	// into neighbourhoods of batchUpdates objects in seeded order. Batch
	// n updates block n and inserts next to it, so one batch dirties one
	// neighbourhood — a few index cells — rather than the whole window.
	blocks [][][]int
	// firstDeletes are per-unit reserved dataset ids, removed by the
	// unit's very first batch.
	firstDeletes [][]int
}

// neighbourhoodRow is the height of the bands the reserved objects are
// sorted into before they are cut into blocks; about one index cell.
const neighbourhoodRow = 0.01

func newIngestPlan(p *plan, window geo.Rect, cycles int) *ingestPlan {
	ip := &ingestPlan{seed: p.seed, col: p.col, window: window, cycles: cycles}
	inWindow := p.store.Region(window)
	sort.Ints(inWindow)
	perm := p.rng.Perm(len(inWindow))
	per := len(perm) / clients
	for c := 0; c < clients; c++ {
		mine := make([]int, per)
		for i := range mine {
			mine[i] = inWindow[perm[c*per+i]]
		}
		var dels []int
		for _, pos := range mine[:batchDeletes] {
			dels = append(dels, p.col.Objects[pos].ID)
		}
		ip.firstDeletes = append(ip.firstDeletes, dels)
		mine = mine[batchDeletes:]
		objs := p.col.Objects
		sort.Slice(mine, func(i, j int) bool {
			a, b := objs[mine[i]].Loc, objs[mine[j]].Loc
			if ra, rb := math.Floor(a.Y/neighbourhoodRow), math.Floor(b.Y/neighbourhoodRow); ra != rb {
				return ra < rb
			}
			if a.X != b.X {
				return a.X < b.X
			}
			return mine[i] < mine[j]
		})
		var blocks [][]int
		for i := 0; i+batchUpdates <= len(mine); i += batchUpdates {
			blocks = append(blocks, mine[i:i+batchUpdates])
		}
		p.rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		ip.blocks = append(ip.blocks, blocks)
	}
	return ip
}

func (ip *ingestPlan) insertedIDs(unit, batch int) []int {
	ids := make([]int, batchInserts)
	for j := range ids {
		ids[j] = ip.col.Len() + unit*idStride + batch*batchInserts + j
	}
	return ids
}

// batch returns the mutations of one unit's cycle in replay g.
func (ip *ingestPlan) batch(unit, cycle, g int) []livestore.Mutation {
	n := g*ip.cycles + cycle
	rng := rand.New(rand.NewSource(ip.seed*1000003 + int64(unit)*idStride + int64(n)))
	block := ip.blocks[unit][n%len(ip.blocks[unit])]
	near := func(pos int) geo.Point {
		o := ip.col.Objects[pos].Loc
		loc := geo.Pt(o.X+rng.NormFloat64()*0.002, o.Y+rng.NormFloat64()*0.002)
		if !ip.window.Contains(loc) {
			return o
		}
		return loc
	}
	muts := make([]livestore.Mutation, 0, batchInserts+batchUpdates+batchDeletes)
	for j, id := range ip.insertedIDs(unit, n) {
		pos := block[j%len(block)]
		muts = append(muts, livestore.Mutation{Op: livestore.OpInsert, ID: id, Loc: near(pos), Weight: rng.Float64(), Text: ip.col.Objects[pos].Text})
	}
	for _, pos := range block {
		o := &ip.col.Objects[pos]
		muts = append(muts, livestore.Mutation{Op: livestore.OpUpdate, ID: o.ID, Loc: near(pos), Weight: rng.Float64(), Text: o.Text})
	}
	dels := ip.firstDeletes[unit]
	if n > 0 {
		dels = ip.insertedIDs(unit, n-1)
	}
	for _, id := range dels {
		muts = append(muts, livestore.Mutation{Op: livestore.OpDelete, ID: id})
	}
	return muts
}

// ingestMutation is the /ingest wire form of one mutation.
type ingestMutation struct {
	Op     string  `json:"op"`
	ID     int     `json:"id"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Weight float64 `json:"weight"`
	Text   string  `json:"text,omitempty"`
}

// body renders one batch as an /ingest request body.
func (ip *ingestPlan) body(unit, cycle, g int) []byte {
	muts := ip.batch(unit, cycle, g)
	wire := make([]ingestMutation, len(muts))
	for i, m := range muts {
		wire[i] = ingestMutation{Op: m.Op.String(), ID: m.ID, X: m.Loc.X, Y: m.Loc.Y, Weight: m.Weight, Text: m.Text}
	}
	// Finite floats and strings always marshal.
	body, _ := json.Marshal(map[string][]ingestMutation{"mutations": wire}) //geolint:errok
	return body
}
