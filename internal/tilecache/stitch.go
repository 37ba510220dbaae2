package tilecache

import (
	"context"
	"fmt"
	"time"

	"geosel/internal/core"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/invariant"
)

// scratch is the pooled per-request workspace of the warm serving
// path. Every slice is reused append-style, so a warm hit allocates
// nothing beyond the caller's response buffer.
type scratch struct {
	tiles []*entry
	// members holds the covering tiles' members inside the viewport,
	// one run per tile in sc.tiles order.
	members []member
	keptPos []int32
	keptRef []int32
	keptLoc []geo.Point
	// kept is the set of keptPos, the repair pass's duplicate test.
	kept posSet
	// gset is a warm navigation's candidate set G.
	gset  posSet
	rects []geo.Rect
}

// member is one cached tile-selection member inside the viewport. ref
// says where it came from: its index in the concatenation of the
// covering tiles' member lists (scratch.tiles order), which is how the
// emit loop finds its rendered fragment again.
type member struct {
	pos  int32
	ref  int32
	gain float64
	loc  geo.Point
}

// memberBefore reports whether a precedes b in the keep order of the
// repair pass: gain descending, position ascending. A tile entry lists
// its members in this order already (computeTile).
func memberBefore(a, b member) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.pos < b.pos
}

// posSet is an open-addressed set of collection positions: linear
// probing over a power-of-two table whose slots hold position+1, so the
// zero slot is empty. reset sizes the table to at least twice the
// number of positions the pass may add, so every probe run ends at an
// empty slot.
type posSet struct {
	slots []int32
	shift uint32
}

// reset empties the set and sizes it for up to n positions.
func (s *posSet) reset(n int) {
	size, shift := 16, uint32(28)
	for size < 2*n {
		size <<= 1
		shift--
	}
	if cap(s.slots) < size {
		s.grow(size)
	}
	s.slots = s.slots[:size]
	clear(s.slots)
	s.shift = shift
}

// grow replaces the table with a larger one. It runs only while the
// pooled scratch meets a larger request than any before it, and stays
// out of line so that its allocation is not inlined into the stitch.
//
//go:noinline
func (s *posSet) grow(size int) {
	s.slots = make([]int32, size)
}

// slot returns the index of p's slot: the one holding p, or the empty
// one an insert of p takes. The probe starts at the top bits of p times
// 2³²/φ (Fibonacci hashing), which spreads runs of nearby positions.
func (s *posSet) slot(p int32) int {
	mask := len(s.slots) - 1
	i := int((uint32(p) * 0x9E3779B9) >> s.shift)
	for v := s.slots[i]; v != 0 && v != p+1; v = s.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

func (s *posSet) has(p int32) bool { return s.slots[s.slot(p)] != 0 }

func (s *posSet) add(p int32) { s.slots[s.slot(p)] = p + 1 }

// Result describes one viewport served through the cache.
type Result struct {
	// Positions are collection positions in serve order (forced set
	// first, then stitched members by descending recorded gain; on
	// fallback, greedy selection order). It aliases the dst buffer
	// passed to Select; AppendSelectJSON, which hands out the rendered
	// objects instead, leaves it nil.
	Positions []int
	// Score is the selection's representative score. On the stitched
	// path it is the gain-mass approximation Σ kept gains / |O_region|;
	// on fallback it is the exact greedy score.
	Score float64
	// Fallback reports that the stitch was abandoned and the result is
	// a full greedy run, bitwise-identical to the uncached path; its
	// Score is exact exactly when Fallback is set.
	Fallback bool
	// RegionObjects counts the objects in the viewport.
	RegionObjects int
	// Tiles and TileMisses count the covering tiles and how many of
	// them had to be computed cold for this request.
	Tiles      int
	TileMisses int
	// RepairDropped counts stitched members dropped for θ-conflicts.
	RepairDropped int
}

// stitchInfo accumulates the repair pass bookkeeping.
type stitchInfo struct {
	keptGain     float64
	totalGain    float64
	droppedGain  float64
	excludedGain float64
	droppedCount int
	tiles        int
	misses       int
}

// Select serves one viewport through the cache: fetch the covering
// tiles (computing misses), stitch their cached selections under the
// requested θ, and fall back to a full greedy run when the seam repair
// would cost more than the configured gain budget. dst (may be nil) is
// the position buffer the result is appended into, so steady-state
// callers can serve warm hits without per-request allocation.
//
// The version must be the one the view was pinned at (Source.Snapshot);
// entries cached at other versions are revalidated against the view's
// dirty-rectangle history, never served stale.
func (c *Cache) Select(ctx context.Context, view geodata.View, version uint64, region geo.Rect, k int, theta float64, dst []int) (Result, error) {
	sc, info, err := c.stitchViewport(ctx, view, version, region, k, theta)
	if err != nil {
		return Result{}, err
	}
	if sc == nil {
		return c.fallbackSelect(ctx, view, region, k, theta, dst)
	}
	for _, p := range sc.keptPos {
		dst = append(dst, int(p))
	}
	c.putScratch(sc)
	res := c.warmResult(view, region, info)
	res.Positions = dst
	return res, nil
}

// AppendSelectJSON is Select for a caller that wants the response, not
// the positions: the same viewport, served the same way, comes back as
// the JSON array of the selected objects (geodata.AppendObjectsJSON's
// bytes) appended to dst. On the stitched path that is one copy per
// kept member out of the tile entries' fragments; the fallback renders
// its positions.
func (c *Cache) AppendSelectJSON(ctx context.Context, view geodata.View, version uint64, region geo.Rect, k int, theta float64, dst []byte) ([]byte, Result, error) {
	sc, info, err := c.stitchViewport(ctx, view, version, region, k, theta)
	if err != nil {
		return dst, Result{}, err
	}
	objs := view.Collection().Objects
	if sc == nil {
		res, err := c.fallbackSelect(ctx, view, region, k, theta, nil)
		if err != nil {
			return dst, Result{}, err
		}
		dst = geodata.AppendObjectsJSON(dst, objs, res.Positions)
		res.Positions = nil
		return dst, res, nil
	}
	dst = appendKept(dst, sc, objs)
	c.putScratch(sc)
	return dst, c.warmResult(view, region, info), nil
}

// stitchViewport is the part Select and AppendSelectJSON share: check
// the request and stitch. A nil
// scratch (with a nil error) means the viewport cannot be served from
// tiles and the caller falls back; otherwise the kept members are in
// the returned scratch, which the caller puts back once it has emitted
// them.
func (c *Cache) stitchViewport(ctx context.Context, view geodata.View, version uint64, region geo.Rect, k int, theta float64) (*scratch, stitchInfo, error) {
	if k <= 0 {
		return nil, stitchInfo{}, fmt.Errorf("tilecache: k = %d must be positive", k)
	}
	if theta < 0 {
		return nil, stitchInfo{}, fmt.Errorf("tilecache: theta = %v must be non-negative", theta)
	}
	if !region.Valid() {
		return nil, stitchInfo{}, fmt.Errorf("tilecache: invalid region %v", region)
	}
	c.stats.requests.Add(1)
	sc := c.getScratch()
	info, ok, err := c.stitchRegion(ctx, view, version, region, k, theta, nil, nil, sc)
	if err != nil || !ok {
		c.putScratch(sc)
		if err == nil {
			c.stats.fallbacks.Add(1)
		}
		return nil, info, err
	}
	c.stats.warmServes.Add(1)
	return sc, info, nil
}

// warmResult describes a stitched serve (all of Result but Positions).
func (c *Cache) warmResult(view geodata.View, region geo.Rect, info stitchInfo) Result {
	regionObjects := view.CountRegion(region)
	return Result{
		Score:         normalizeGain(info.keptGain, regionObjects),
		RegionObjects: regionObjects,
		Tiles:         info.tiles,
		TileMisses:    info.misses,
		RepairDropped: info.droppedCount,
	}
}

// appendKept appends the kept members as a JSON array: a cached
// member's bytes come out of its tile entry, a forced one — which no
// covering tile need hold — is rendered from its position.
//
//geolint:hotpath
func appendKept(dst []byte, sc *scratch, objs []geodata.Object) []byte {
	dst = append(dst, '[')
	for i, ref := range sc.keptRef {
		if i > 0 {
			dst = append(dst, ',')
		}
		if ref < 0 {
			dst = geodata.AppendObjectJSON(dst, &objs[sc.keptPos[i]])
			continue
		}
		t := 0
		for ref >= int32(len(sc.tiles[t].pos)) {
			ref -= int32(len(sc.tiles[t].pos))
			t++
		}
		e := sc.tiles[t]
		dst = append(dst, e.frag[e.fragOff[ref]:e.fragOff[ref+1]]...)
	}
	return append(dst, ']')
}

func normalizeGain(gain float64, regionObjects int) float64 {
	if regionObjects <= 0 {
		return 0
	}
	return gain / float64(regionObjects)
}

// fallbackSelect is the uncached path: the same core.SelectRegion call
// over the same region fetch as the server's direct /select handler, so
// the results are bitwise-identical.
func (c *Cache) fallbackSelect(ctx context.Context, view geodata.View, region geo.Rect, k int, theta float64, dst []int) (Result, error) {
	res, err := core.SelectRegion(ctx, c.cfg, view.Collection(), view.Region(region), k, theta, nil, nil, nil, dst)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Positions:     res.Positions,
		Score:         res.Score,
		Fallback:      true,
		RegionObjects: res.RegionObjects,
	}, nil
}

// stitchRegion fetches the covering tiles and runs the repair pass into
// sc.keptPos/keptRef/keptLoc. ok = false means the viewport cannot be
// served from tiles (objects outside the tiled unit square, a degenerate
// cover, or a repair budget violation) and the caller must fall back.
func (c *Cache) stitchRegion(ctx context.Context, view geodata.View, version uint64, region geo.Rect, k int, theta float64, forced []int, gset *posSet, sc *scratch) (stitchInfo, bool, error) {
	var info stitchInfo
	inner, overlaps := region.Intersect(unitRect)
	if !overlaps {
		return info, false, nil
	}
	if !unitRect.ContainsRect(region) && view.CountRegion(region) != view.CountRegion(inner) {
		// Objects outside the tiled world; only the direct path sees
		// them.
		return info, false, nil
	}
	z := zoomFor(region.Side())
	band := bandFor(theta, z)
	x0, y0, x1, y1, ok := coverRange(inner, z)
	if !ok || int((x1-x0+1)*(y1-y0+1)) > maxStitchTiles {
		return info, false, nil
	}
	sc.tiles = sc.tiles[:0]
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			key := Key{T: Tile{Z: z, X: x, Y: y}, Band: band, K: int32(k)}
			e, hit, err := c.getTile(ctx, view, version, key, sc)
			if err != nil {
				return info, false, err
			}
			if !hit {
				info.misses++
			}
			sc.tiles = append(sc.tiles, e)
		}
	}
	info.tiles = len(sc.tiles)

	start := time.Now()
	ok = c.stitch(sc, view.Collection().Objects, region, k, theta, forced, gset, &info)
	c.stats.repairNs.observe(time.Since(start))
	c.stats.repairDropped.Add(uint64(info.droppedCount))
	return info, ok, nil
}

// stitch is the seam-repair pass: gather the cached members inside the
// viewport, take them in the deterministic keep order (gain desc,
// position asc), and keep greedily under the requested θ — the forced
// set (session consistency D) is kept first, members outside gset
// (session consistency G; nil admits every member) are excluded. Each tile's members already
// stand in keep order, so the gather leaves one sorted run per covering
// tile and the order is their merge. The pass touches only pooled
// scratch; the steady state allocates nothing.
//
// ok = false reports an unsalvageable stitch: the θ-conflict drops (or
// the G-exclusions) carry more than the configured fraction of the
// stitched gain mass, or repair left the selection short of k while
// dropping members — both cases where a full greedy run can do
// materially better than the stitched approximation.
//
//geolint:hotpath
func (c *Cache) stitch(sc *scratch, objs []geodata.Object, region geo.Rect, k int, theta float64, forced []int, gset *posSet, info *stitchInfo) bool {
	sc.members = sc.members[:0]
	var mg runMerge
	base := int32(0)
	for _, e := range sc.tiles {
		start := int32(len(sc.members))
		for i, loc := range e.locs {
			if region.Contains(loc) {
				sc.members = append(sc.members, member{pos: e.pos[i], ref: base + int32(i), gain: e.gains[i], loc: loc})
			}
		}
		base += int32(len(e.pos))
		mg.push(start, int32(len(sc.members)))
	}

	sc.keptPos = sc.keptPos[:0]
	sc.keptRef = sc.keptRef[:0]
	sc.keptLoc = sc.keptLoc[:0]
	// The set never holds more than the forced set plus the members, nor
	// more than max(k, |forced|): keeping stops at k.
	sc.kept.reset(min(max(k, len(forced)), len(forced)+len(sc.members)))
	for _, f := range forced {
		sc.keptPos = append(sc.keptPos, int32(f))
		sc.keptRef = append(sc.keptRef, -1)
		sc.keptLoc = append(sc.keptLoc, objs[f].Loc)
		sc.kept.add(int32(f))
	}
	th2 := theta * theta
	for {
		i, ok := mg.pop(sc.members)
		if !ok {
			break
		}
		m := &sc.members[i]
		// Boundary objects appear in two tiles' selections; the second
		// occurrence (and any member doubling a forced object) is a
		// duplicate, not a conflict. A member doubling a dropped one is
		// not: it is tested, and counted, again.
		if sc.kept.has(m.pos) {
			continue
		}
		if gset != nil && !gset.has(m.pos) {
			info.excludedGain += m.gain
			continue
		}
		info.totalGain += m.gain
		if len(sc.keptPos) >= k {
			continue // K-trimmed, not a repair drop
		}
		separated := true
		for _, l := range sc.keptLoc {
			if l.Dist2(m.loc) < th2 {
				separated = false
				break
			}
		}
		if !separated {
			info.droppedCount++
			info.droppedGain += m.gain
			continue
		}
		sc.keptPos = append(sc.keptPos, m.pos)
		sc.keptRef = append(sc.keptRef, m.ref)
		sc.keptLoc = append(sc.keptLoc, m.loc)
		sc.kept.add(m.pos)
		info.keptGain += m.gain
	}

	if info.droppedGain > c.budget*info.totalGain {
		return false
	}
	if info.excludedGain > c.budget*(info.totalGain+info.excludedGain) {
		return false
	}
	if len(sc.keptPos) < k && info.droppedCount > 0 {
		return false
	}
	if invariant.Enabled {
		// The stitched contract: the served selection is pairwise
		// θ-separated no matter which tiles (or θ-bands) it came from.
		locs := sc.keptLoc
		invariant.PairwiseSeparated(len(locs), func(i, j int) float64 {
			return locs[i].Dist(locs[j])
		}, theta, "tilecache: stitched selection visibility")
	}
	return true
}

// runMerge is the merge of stitch's per-tile runs: members[head[j]:
// end[j]] is the unconsumed rest of the j-th non-empty run, in tile
// order. Each pop scans the heads — at most maxStitchTiles of them —
// and on equal keys takes the earliest tile's member.
type runMerge struct {
	head, end [maxStitchTiles]int32
	n         int
}

// push appends the run members[start:end], unless it is empty.
func (mg *runMerge) push(start, end int32) {
	if end > start {
		mg.head[mg.n], mg.end[mg.n] = start, end
		mg.n++
	}
}

// pop returns the index into ms of the next member in keep order, or
// ok = false once every run is consumed.
func (mg *runMerge) pop(ms []member) (int32, bool) {
	if mg.n == 0 {
		return 0, false
	}
	b := 0
	for j := 1; j < mg.n; j++ {
		if memberBefore(ms[mg.head[j]], ms[mg.head[b]]) {
			b = j
		}
	}
	i := mg.head[b]
	mg.head[b]++
	if mg.head[b] == mg.end[b] {
		copy(mg.head[b:mg.n-1], mg.head[b+1:mg.n])
		copy(mg.end[b:mg.n-1], mg.end[b+1:mg.n])
		mg.n--
	}
	return i, true
}

// WarmNavigate serves one session navigation from the cache under the
// isos consistency constraints: forced (the derivation's D set) is kept
// verbatim, and only positions in candidates (the derivation's G set;
// nil means unconstrained) may newly appear — so a warm selection
// satisfies isos.CheckTransition by construction. ok = false declines
// the navigation (repair budget exceeded, heavy G-exclusion, objects
// outside the tiled world, or an internal error): the session then runs
// its ordinary selection; declining is never incorrect, only colder.
//
// On success it returns the positions (forced first), the gain-mass
// approximate score, and the viewport object count.
func (c *Cache) WarmNavigate(ctx context.Context, view geodata.View, version uint64, region geo.Rect, k int, theta float64, forced, candidates []int) (positions []int, score float64, regionObjects int, ok bool) {
	if k <= 0 || theta < 0 || len(forced) > k || !region.Valid() {
		return nil, 0, 0, false
	}
	sc := c.getScratch()
	var gset *posSet
	if candidates != nil {
		sc.gset.reset(len(candidates))
		for _, p := range candidates {
			sc.gset.add(int32(p))
		}
		gset = &sc.gset
	}
	info, ok, err := c.stitchRegion(ctx, view, version, region, k, theta, forced, gset, sc)
	if err != nil || !ok {
		c.putScratch(sc)
		c.stats.warmNavMisses.Add(1)
		return nil, 0, 0, false
	}
	positions = make([]int, len(sc.keptPos))
	for i, p := range sc.keptPos {
		positions[i] = int(p)
	}
	c.putScratch(sc)
	regionObjects = view.CountRegion(region)
	c.stats.warmNavigations.Add(1)
	return positions, normalizeGain(info.keptGain, regionObjects), regionObjects, true
}
