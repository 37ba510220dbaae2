package tilecache

import (
	"sync/atomic"
	"time"
)

// histBuckets and histBase define the latency histograms: bucket i
// counts observations in (histBase<<(i-1), histBase<<i] nanoseconds,
// bucket 0 everything up to histBase, the last bucket everything
// beyond — 128ns to ~1s in powers of two.
const (
	histBuckets = 24
	histBase    = 128 // ns
)

// histogram is a fixed power-of-two latency histogram with atomic
// buckets; observation is allocation-free.
type histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	i := 0
	for limit := uint64(histBase); i < histBuckets-1 && ns > limit; i++ {
		limit <<= 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
}

// counters is the cache's atomic counter block.
type counters struct {
	requests   atomic.Uint64 // viewport serves through Select
	warmServes atomic.Uint64 // viewports answered by stitching alone
	fallbacks  atomic.Uint64 // viewports that fell back to full greedy

	warmNavigations atomic.Uint64 // session navigations served warm
	warmNavMisses   atomic.Uint64 // session navigations declined

	tileHits   atomic.Uint64 // tile lookups answered from the cache
	tileMisses atomic.Uint64 // tile lookups that computed a selection
	coalesced  atomic.Uint64 // lookups that waited on another compute
	bypasses   atomic.Uint64 // old-version lookups served uncached

	evictions     atomic.Uint64 // clean entries dropped by the LRU capacity
	invalidations atomic.Uint64 // entries dropped by epoch dirt

	repairDropped atomic.Uint64 // members dropped by seam repair
	tilePayloads  atomic.Uint64 // tiles rendered into the wire format

	coldNs   histogram // per-tile compute latency
	repairNs histogram // stitch+repair pass latency
}

// HistogramStats is the JSON-ready form of a latency histogram.
type HistogramStats struct {
	Count uint64 `json:"count"`
	SumNs uint64 `json:"sumNs"`
	// Buckets[i] counts observations up to UpperNs[i]; the last bucket
	// is unbounded.
	UpperNs []uint64 `json:"upperNs"`
	Buckets []uint64 `json:"buckets"`
}

func (h *histogram) snapshot() HistogramStats {
	out := HistogramStats{
		Count:   h.count.Load(),
		SumNs:   h.sumNs.Load(),
		UpperNs: make([]uint64, 0, histBuckets),
		Buckets: make([]uint64, 0, histBuckets),
	}
	limit := uint64(histBase)
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n > 0 {
			out.UpperNs = append(out.UpperNs, limit)
			out.Buckets = append(out.Buckets, n)
		}
		limit <<= 1
	}
	return out
}

// Stats is a point-in-time summary of the cache, shaped for the
// GET /cache/stats endpoint.
type Stats struct {
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`

	Requests   uint64 `json:"requests"`
	WarmServes uint64 `json:"warmServes"`
	Fallbacks  uint64 `json:"fallbacks"`

	WarmNavigations uint64 `json:"warmNavigations"`
	WarmNavMisses   uint64 `json:"warmNavMisses"`

	TileHits   uint64 `json:"tileHits"`
	TileMisses uint64 `json:"tileMisses"`
	Coalesced  uint64 `json:"coalesced"`
	Bypasses   uint64 `json:"bypasses"`

	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`

	RepairDropped uint64 `json:"repairDropped"`
	// TilePayloads counts tiles rendered into the wire format; a /tiles
	// revalidation answered 304 renders none.
	TilePayloads uint64 `json:"tilePayloads"`

	ColdComputeNs HistogramStats `json:"coldComputeNs"`
	RepairNs      HistogramStats `json:"repairNs"`
}

// Stats returns a consistent-enough snapshot of the counters (each
// counter is read atomically; the set is not a single atomic cut).
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries := len(c.entries)
	c.mu.Unlock()
	return Stats{
		Entries:         entries,
		Capacity:        c.cfg.TileCacheCapacity,
		Requests:        c.stats.requests.Load(),
		WarmServes:      c.stats.warmServes.Load(),
		Fallbacks:       c.stats.fallbacks.Load(),
		WarmNavigations: c.stats.warmNavigations.Load(),
		WarmNavMisses:   c.stats.warmNavMisses.Load(),
		TileHits:        c.stats.tileHits.Load(),
		TileMisses:      c.stats.tileMisses.Load(),
		Coalesced:       c.stats.coalesced.Load(),
		Bypasses:        c.stats.bypasses.Load(),
		Evictions:       c.stats.evictions.Load(),
		Invalidations:   c.stats.invalidations.Load(),
		RepairDropped:   c.stats.repairDropped.Load(),
		TilePayloads:    c.stats.tilePayloads.Load(),
		ColdComputeNs:   c.stats.coldNs.snapshot(),
		RepairNs:        c.stats.repairNs.snapshot(),
	}
}
