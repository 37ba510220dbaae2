package tilecache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
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

// repairBudget is the largest fraction of the stitched tiles' total
// recorded gain the seam-repair pass may drop before the stitch is
// declared unsalvageable and the viewport falls back to a full greedy
// run: the 1/8 of the greedy approximation bound.
const repairBudget = 0.125

// entry is one materialized tile selection. pos/gains/locs/frag/score/
// count are immutable after insert; ver advances under the cache lock
// when entryValid proves the tile untouched, so readers copy nothing.
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
// the leader and then re-read the entry map. The leader sets err and
// then closes done.
type flight struct {
	done chan struct{}
	err  error
}

// Cache is the tile-grain materialized selection cache: one LRU of at
// most TileCacheCapacity entries under one lock. Construct with New;
// all methods are safe for concurrent use.
type Cache struct {
	cfg engine.Config
	// budget is repairBudget; tests vary it.
	budget float64

	mu      sync.Mutex
	entries map[Key]*entry
	flights map[Key]*flight
	root    entry // LRU sentinel: root.next is most recent

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
	c := &Cache{
		cfg:     cfg,
		budget:  repairBudget,
		entries: make(map[Key]*entry),
		flights: make(map[Key]*flight),
	}
	c.root.prev, c.root.next = &c.root, &c.root
	c.scratch.New = func() any { return &scratch{} }
	return c, nil
}

// The LRU list operations; the caller holds c.mu.

func (c *Cache) pushFront(e *entry) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache) unlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (c *Cache) touch(e *entry) {
	if c.root.next == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) drop(e *entry) {
	c.unlink(e)
	delete(c.entries, e.key)
}

func anyIntersects(rects []geo.Rect, r geo.Rect) bool {
	for i := range rects {
		if rects[i].Intersects(r) {
			return true
		}
	}
	return false
}

// entryValid reports, under c.mu, whether e may be served at version:
// whether the pinned view's DirtyCells history covers (e.ver, version]
// and no cell it lists meets e's tile, in which case e.ver advances.
// Without that history (no DirtyView, a truncated history, or a
// compaction, which renumbers every position) e is invalid. It is the
// cache's only validity check.
func (c *Cache) entryValid(e *entry, view geodata.View, version uint64, sc *scratch) bool {
	if e.ver == version {
		return true
	}
	dv, ok := view.(DirtyView)
	if !ok {
		return false
	}
	rects, covered := dv.DirtyCells(e.ver, sc.rects[:0])
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
//
// The cache's whole policy is here and in entryValid: an entry is
// served only while entryValid holds and is dropped otherwise, a hit
// moves it to the front of the LRU list, and an insert evicts from the
// back down to TileCacheCapacity entries.
func (c *Cache) getTile(ctx context.Context, view geodata.View, version uint64, key Key, sc *scratch) (e *entry, hit bool, err error) {
	var lead *flight
	for {
		c.mu.Lock()
		if e := c.entries[key]; e != nil {
			if e.born > version {
				// Entry from a newer epoch; serve this older-pinned
				// request uncached rather than evict fresher work.
				c.mu.Unlock()
				c.stats.bypasses.Add(1)
				e, err := c.computeTile(ctx, view, version, key)
				return e, false, err
			}
			if c.entryValid(e, view, version, sc) {
				c.touch(e)
				c.mu.Unlock()
				c.stats.tileHits.Add(1)
				return e, true, nil
			}
			c.drop(e)
			c.stats.invalidations.Add(1)
		}
		f := c.flights[key]
		if f == nil {
			lead = &flight{done: make(chan struct{})}
			c.flights[key] = lead
			c.mu.Unlock()
			break // this goroutine computes
		}
		c.mu.Unlock()
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
	c.mu.Lock()
	delete(c.flights, key)
	if err == nil {
		if invariant.Enabled {
			// The flight kept every other goroutine from inserting key.
			invariant.Assertf(c.entries[key] == nil, "tilecache: tile %v inserted twice under one flight", key)
		}
		c.entries[key] = ent
		c.pushFront(ent)
		for len(c.entries) > c.cfg.TileCacheCapacity {
			tail := c.root.prev
			c.drop(tail)
			// A tail an epoch already dirtied leaves by that dirt, as it
			// would have at its next lookup, not by the capacity.
			if c.entryValid(tail, view, version, sc) {
				c.stats.evictions.Add(1)
			} else {
				c.stats.invalidations.Add(1)
			}
		}
	}
	c.mu.Unlock()
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
