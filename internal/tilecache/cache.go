package tilecache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"geosel/internal/core"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/invariant"
)

// DirtyView is the view capability epoch invalidation consumes:
// DirtyCells appends the world-space rectangles rewritten by the epochs
// in (sinceVersion, current] and reports whether the view's history
// covers that whole interval (livestore.Snapshot implements it). Views
// without the capability — the static Store — are only ever served at
// version 0, where entries never go stale.
type DirtyView interface {
	geodata.View
	DirtyCells(sinceVersion uint64, dst []geo.Rect) ([]geo.Rect, bool)
}

// numShards spreads the cache over independently locked shards; a
// power of two so shard selection is a mask.
const numShards = 16

// repairBudget is the largest fraction of the stitched tiles' total
// recorded gain the seam-repair pass may drop before the stitch is
// declared unsalvageable and the viewport falls back to a full greedy
// run: the 1/8 of the greedy approximation bound.
const repairBudget = 0.125

// entry is one materialized tile selection. pos/gains/locs/frag/score/
// count are immutable after insert; ver advances under the shard lock
// when an epoch sweep proves the tile untouched, so readers copy
// nothing.
type entry struct {
	key Key
	// born is the snapshot version the selection was computed at; it
	// never changes and identifies the entry's content (the /tiles
	// ETag).
	born uint64
	// ver is the newest version the entry is known valid at: the tile's
	// cells were not dirtied by any epoch in (born, ver].
	ver uint64
	// pos holds the selected collection positions in selection order,
	// gains the matching unnormalized marginal gains and locs their
	// locations, so a stitch reads nothing of the object array.
	// Selection order is the stitch's keep order (memberBefore): greedy
	// gains never rise, a gain tie goes to the smaller staged index, and
	// staged indices ascend with positions (every View's Region is
	// ascending).
	pos   []int32
	gains []float64
	locs  []geo.Point
	// frag holds the members' rendered wire forms
	// (geodata.AppendObjectJSON) back to back, member i at
	// frag[fragOff[i]:fragOff[i+1]], so a stitched serve copies bytes
	// instead of formatting numbers. An entry outlives its version only
	// while no epoch touched its tile — while none of its members
	// changed — so the bytes stay valid exactly as long as pos does.
	frag    []byte
	fragOff []int32
	// score is the tile-normalized selection score, count the number of
	// objects in the tile at compute time.
	score float64
	count int32

	prev, next *entry // intrusive LRU list, most recent first
}

// flight coalesces concurrent computes of one key: latecomers wait for
// the leader and then re-read the shard map. The leader sets err and
// then closes done.
type flight struct {
	done chan struct{}
	err  error
}

type shard struct {
	mu      sync.Mutex
	entries map[Key]*entry
	flights map[Key]*flight
	root    entry // LRU sentinel: root.next is most recent
}

func (sh *shard) init() {
	sh.entries = make(map[Key]*entry)
	sh.flights = make(map[Key]*flight)
	sh.root.prev, sh.root.next = &sh.root, &sh.root
}

func (sh *shard) pushFront(e *entry) {
	e.prev, e.next = &sh.root, sh.root.next
	e.prev.next, e.next.prev = e, e
}

func (sh *shard) unlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (sh *shard) touch(e *entry) {
	if sh.root.next == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

func (sh *shard) drop(e *entry) {
	sh.unlink(e)
	delete(sh.entries, e.key)
}

// Cache is the tile-grain materialized selection cache. Construct with
// New; all methods are safe for concurrent use.
type Cache struct {
	cfg engine.Config
	// budget is repairBudget; tests vary it.
	budget   float64
	perShard int

	shards [numShards]shard

	// watermark is the newest version an eager sweep has brought every
	// retained entry up to; serving at a version <= watermark needs no
	// sweep. Entry-level validity is still re-checked at lookup time.
	watermark atomic.Uint64
	sweepMu   sync.Mutex

	stats   counters
	scratch sync.Pool
}

// New builds a cache from the engine config (which must carry the
// Metric; K and θ arrive per request). TileCacheCapacity takes its
// engine default when zero.
func New(cfg engine.Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	per := cfg.TileCacheCapacity / numShards
	if per < 1 {
		per = 1
	}
	c := &Cache{
		cfg:      cfg,
		budget:   repairBudget,
		perShard: per,
	}
	for i := range c.shards {
		c.shards[i].init()
	}
	c.scratch.New = func() any { return &scratch{} }
	return c, nil
}

// sync eagerly reconciles the cache with the serving version: entries
// in cells dirtied since the last sweep are evicted, untouched entries
// have their validity watermark bumped, so steady-state lookups hit the
// e.ver == version fast path. With a truncated dirty history (or no
// DirtyView at all) everything older is evicted — correct, just cold.
func (c *Cache) sync(dv DirtyView, version uint64) {
	if c.watermark.Load() >= version {
		return
	}
	c.sweepMu.Lock()
	defer c.sweepMu.Unlock()
	w := c.watermark.Load()
	if w >= version {
		return
	}
	var rects []geo.Rect
	covered := false
	if dv != nil {
		rects, covered = dv.DirtyCells(w, nil)
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.ver >= version {
				continue
			}
			// Entries behind the previous watermark would need their own
			// dirty interval; evict them rather than widen the query.
			if !covered || e.ver < w || anyIntersects(rects, e.key.T.Rect()) {
				sh.drop(e)
				c.stats.invalidations.Add(1)
				continue
			}
			e.ver = version
		}
		sh.mu.Unlock()
	}
	c.watermark.Store(version)
}

func anyIntersects(rects []geo.Rect, r geo.Rect) bool {
	for i := range rects {
		if rects[i].Intersects(r) {
			return true
		}
	}
	return false
}

// entryValid re-establishes e's validity at the serving version under
// the shard lock — the authoritative, race-proof check: even an entry
// inserted by a laggard compute after a sweep is validated against the
// serving snapshot's own dirty history before it is ever served.
func (c *Cache) entryValid(e *entry, dv DirtyView, version uint64, sc *scratch) bool {
	if e.ver == version {
		return true
	}
	if dv == nil {
		return false
	}
	sc.rects = sc.rects[:0]
	rects, covered := dv.DirtyCells(e.ver, sc.rects)
	sc.rects = rects
	if !covered || anyIntersects(rects, e.key.T.Rect()) {
		return false
	}
	e.ver = version
	return true
}

// getTile returns the materialized selection for key at the serving
// version, computing and caching it on a miss. hit reports whether the
// entry came out of the cache. Concurrent misses of one key are
// coalesced: the first computes, the rest wait and give up only on their
// own ctx. The leader computes under a context detached from its
// request and bounded by the cache's own budget
// (engine.Config.RequestTimeout): a compute is never thrown away
// because the request that started it left, so a tile whose cold
// compute outlasts its first requester is still filled and the next
// request hits. The leader itself may therefore return after its own
// ctx ended, at most one budget later. A request pinned to an older
// version than a cached entry computes uncached instead of thrashing
// the newer entry.
func (c *Cache) getTile(ctx context.Context, view geodata.View, dv DirtyView, version uint64, key Key, sc *scratch) (e *entry, hit bool, err error) {
	sh := &c.shards[key.hash()&(numShards-1)]
	var lead *flight
	for {
		sh.mu.Lock()
		if e := sh.entries[key]; e != nil {
			if e.born > version {
				// Entry from a newer epoch; serve this older-pinned
				// request uncached rather than evict fresher work.
				sh.mu.Unlock()
				c.stats.bypasses.Add(1)
				e, err := c.computeTile(ctx, view, version, key)
				return e, false, err
			}
			if c.entryValid(e, dv, version, sc) {
				sh.touch(e)
				sh.mu.Unlock()
				c.stats.tileHits.Add(1)
				return e, true, nil
			}
			sh.drop(e)
			c.stats.invalidations.Add(1)
		}
		f := sh.flights[key]
		if f == nil {
			lead = &flight{done: make(chan struct{})}
			sh.flights[key] = lead
			sh.mu.Unlock()
			break // this goroutine computes
		}
		sh.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.err != nil {
			if isContextErr(f.err) && ctx.Err() == nil {
				continue
			}
			return nil, false, f.err
		}
		c.stats.coalesced.Add(1)
		// Re-read through the map: the leader's insert is revalidated
		// against this request's own version on the next pass.
	}

	// On this goroutine, not a spawned one: a goroutine handoff per miss
	// added about a fifth to the median latency of a miss-heavy
	// read/ingest mix on a 2-vCPU host.
	cctx := context.WithoutCancel(ctx)
	if c.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(cctx, c.cfg.RequestTimeout)
		defer cancel()
	}
	ent, err := c.computeTile(cctx, view, version, key)
	sh.mu.Lock()
	delete(sh.flights, key)
	if err == nil {
		if old := sh.entries[key]; old != nil {
			// A sweep-surviving or competing entry; keep the newer one.
			if old.born >= ent.born {
				sh.mu.Unlock()
				close(lead.done)
				c.stats.tileMisses.Add(1)
				return ent, false, nil
			}
			sh.drop(old)
		}
		sh.entries[key] = ent
		sh.pushFront(ent)
		for len(sh.entries) > c.perShard {
			tail := sh.root.prev
			sh.drop(tail)
			c.stats.evictions.Add(1)
		}
	}
	sh.mu.Unlock()
	lead.err = err
	close(lead.done)
	if err != nil {
		return nil, false, err
	}
	c.stats.tileMisses.Add(1)
	return ent, false, nil
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// computeTile runs the ordinary greedy selection over the tile's
// objects with the band-representative θ and renders the members' wire
// forms. The resulting entry depends only on (tile contents at version,
// key), never on request order.
func (c *Cache) computeTile(ctx context.Context, view geodata.View, version uint64, key Key) (*entry, error) {
	if key.K <= 0 {
		return nil, fmt.Errorf("tilecache: tile K = %d must be positive", key.K)
	}
	start := time.Now()
	res, err := core.SelectRegion(ctx, c.cfg, view.Collection(), view.Region(key.T.Rect()),
		int(key.K), bandTheta(key.T.Z, key.Band), nil, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	ent := &entry{
		key:     key,
		born:    version,
		ver:     version,
		score:   res.Score,
		count:   int32(res.RegionObjects),
		pos:     make([]int32, len(res.Positions)),
		gains:   append([]float64(nil), res.Gains...),
		locs:    make([]geo.Point, len(res.Positions)),
		fragOff: make([]int32, len(res.Positions)+1),
	}
	objs := view.Collection().Objects
	// An object renders to ~115 bytes; one allocation here, not a chain
	// of doublings.
	frag := make([]byte, 0, 128*len(res.Positions))
	for i, p := range res.Positions {
		ent.pos[i] = int32(p)
		ent.locs[i] = objs[p].Loc
		frag = geodata.AppendObjectJSON(frag, &objs[p])
		ent.fragOff[i+1] = int32(len(frag))
		if invariant.Enabled && i > 0 {
			prev := member{pos: ent.pos[i-1], gain: ent.gains[i-1]}
			invariant.Assertf(memberBefore(prev, member{pos: ent.pos[i], gain: ent.gains[i]}),
				"tilecache: tile %v member %d (position %d, gain %v) does not follow member %d (position %d, gain %v) in keep order",
				key, i, p, ent.gains[i], i-1, prev.pos, prev.gain)
		}
	}
	// The entry keeps a copy without append's spare capacity.
	ent.frag = bytes.Clone(frag)
	c.stats.coldNs.observe(time.Since(start))
	return ent, nil
}

func (c *Cache) getScratch() *scratch {
	return c.scratch.Get().(*scratch)
}

func (c *Cache) putScratch(sc *scratch) {
	c.scratch.Put(sc)
}
