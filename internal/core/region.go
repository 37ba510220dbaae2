package core

import (
	"context"
	"fmt"
	"slices"

	"geosel/internal/engine"
	"geosel/internal/geodata"
	"geosel/internal/invariant"
	"geosel/internal/sim"
)

// RegionResult is the outcome of SelectRegion, stated in collection
// positions.
type RegionResult struct {
	// Positions holds collection positions: first the forced set, then
	// the greedy picks in selection order, appended to the dst handed to
	// SelectRegion.
	Positions []int
	// Score, Gains, Evals and Rounds are the run's Result fields.
	Score  float64
	Gains  []float64
	Evals  int
	Rounds int
	// RegionObjects is |O|, the number of staged objects. ForcedCount
	// and CandidateCount are |D| and |G| as handed to the run: the given
	// positions that lie in the region (forced trimmed to k), or |O|
	// candidates when none were given.
	RegionObjects               int
	ForcedCount, CandidateCount int
}

// SelectRegion is the one selection seam of the serving stack: it stages
// the objects of a region, runs a Selector over them and maps the
// selection back, so every caller states its problem — and reads its
// answer — in collection positions and none handles staged indices.
//
// pos lists the region's objects as positions into col, in the order
// the view returned them. That order is part of the contract: the
// objects are staged in exactly pos order, which fixes the summation
// order of every floating-point reduction and the (gain, id)
// tie-breaks, so the same pos yields bitwise the same result as a
// hand-built Selector over col.Subset(pos) — and a reordered pos may
// not. k and theta (absolute) override cfg's K, Theta and ThetaFrac;
// every other field of cfg is forwarded as is.
//
// forced (the set D) and cands (the set G) are optional collection
// positions, looked up in pos by binary search: a run that names either
// needs pos strictly ascending, the order every geodata.View's Region
// returns, and fails without one. Positions outside pos are dropped;
// forced positions beyond k are trimmed in input order. A nil cands
// makes every staged object a candidate (the plain sos problem); a
// non-nil cands, however short, is the whole candidate set. bounds,
// consulted only with an explicit cands, holds an upper bound on each
// candidate's initial unnormalized gain (Lemmas 5.1–5.3), aligned with
// cands — the shape of Selector.InitialGains.
//
// dst (may be nil) is the buffer the selected positions are appended
// to. ctx cancels the run as it does Selector.Run.
func SelectRegion(ctx context.Context, cfg engine.Config, col *geodata.Collection, pos []int, k int, theta float64, forced, cands []int, bounds []float64, dst []int) (RegionResult, error) {
	if cands != nil && bounds != nil && len(bounds) != len(cands) {
		return RegionResult{}, fmt.Errorf("core: %d bounds for %d candidates", len(bounds), len(cands))
	}
	if forced != nil || cands != nil {
		for i := 1; i < len(pos); i++ {
			if pos[i] <= pos[i-1] {
				return RegionResult{}, fmt.Errorf("core: region positions not strictly ascending (%d after %d) in a run that names forced or candidate positions", pos[i], pos[i-1])
			}
		}
	}
	cfg.K, cfg.Theta, cfg.ThetaFrac = k, theta, 0
	a := getArena()
	defer a.release()
	sel := &Selector{Config: cfg, Objects: a.stage(col, pos)}
	out := RegionResult{RegionObjects: len(pos), CandidateCount: len(pos)}
	if forced != nil {
		a.forced = a.forced[:0]
		for _, p := range forced {
			if i, ok := slices.BinarySearch(pos, p); ok && len(a.forced) < k {
				a.forced = append(a.forced, i)
			}
		}
		sel.Forced = a.forced
		out.ForcedCount = len(sel.Forced)
	}
	if cands != nil {
		// A non-nil cands, however short, is the whole candidate set, and
		// a non-nil bounds is InitialGains: neither may turn nil.
		a.gcands, a.gains = a.gcands[:0], a.gains[:0]
		for j, p := range cands {
			i, ok := slices.BinarySearch(pos, p)
			if !ok {
				continue
			}
			a.gcands = append(a.gcands, i)
			if bounds != nil {
				a.gains = append(a.gains, bounds[j])
			}
		}
		sel.Candidates = nonNil(a.gcands)
		if bounds != nil {
			sel.InitialGains = nonNil(a.gains)
		}
		out.CandidateCount = len(sel.Candidates)
		if invariant.Enabled && bounds != nil {
			assertBoundsDominate(sel.Objects, sel.Candidates, sel.InitialGains, cfg.Metric)
		}
	}
	res, err := sel.run(ctx, a)
	if err != nil {
		return RegionResult{}, err
	}
	// With no buffer to append to, the run's own slice is remapped in
	// place: element i is read before it is overwritten.
	if dst == nil {
		dst = res.Selected[:0]
	}
	for _, i := range res.Selected {
		dst = append(dst, pos[i])
	}
	out.Positions = dst
	out.Score, out.Gains, out.Evals, out.Rounds = res.Score, res.Gains, res.Evals, res.Rounds
	return out, nil
}

// nonNil returns s, or an empty non-nil slice in place of a nil one.
func nonNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// assertBoundsDominate checks, under the geoselcheck tag, the heart of
// Lemmas 5.1–5.3: every prefetched upper bound handed to the greedy as
// an InitialGain must dominate the exact unnormalized initial gain
// Σ ω(o)·Sim(c, o) of its candidate over the region's objects — the
// value exact initialization would have computed. The envelope sums
// dominate because the region is contained in the prefetched envelope
// and all terms are non-negative.
func assertBoundsDominate(objs []geodata.Object, cands []int, gains []float64, m sim.Metric) {
	for j, i := range cands {
		c := &objs[i]
		var exact float64
		for q := range objs {
			exact += objs[q].Weight * m.Sim(c, &objs[q])
		}
		invariant.UpperBound(exact, gains[j], "core: prefetched bound vs exact initial gain (Lemmas 5.1-5.3)")
	}
}
