package tilecache

import (
	"context"
	"math/rand"
	"testing"

	"geosel/internal/core"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/invariant"
	"geosel/internal/sim"
)

// TestStitchedSelectionProperties is the acceptance property of the
// stitched serving path: every selection served through the cache —
// stitched or fallen back — satisfies θ-separation, stays inside the
// viewport, and its true representative score (core.Score, the
// geoselcheck ground truth) is within the greedy 1/8 bound of the
// direct uncached run.
func TestStitchedSelectionProperties(t *testing.T) {
	store := testStore(t, 3000, 11)
	view, version := store.Snapshot()
	objs := view.Collection().Objects
	ctx := context.Background()
	const k = 20
	// The one-core engine is the only one; the subtest keeps the name of
	// the serial cell from when a pooled cell ran beside it.
	t.Run("par=1", func(t *testing.T) {
		cfg := engine.Config{Metric: sim.Cosine{}}
		c := newTestCache(t, cfg)
		rng := rand.New(rand.NewSource(23))
		warm := 0
		for q := 0; q < 6; q++ {
			side := 0.12 + 0.25*rng.Float64()
			min := geo.Pt(rng.Float64()*(1-side), rng.Float64()*(1-side))
			region := geo.Rect{Min: min, Max: geo.Pt(min.X+side, min.Y+side)}
			theta := 0.01 * side
			// Twice: the second serve is the warm stitched path.
			if _, err := c.Select(ctx, view, version, region, k, theta, nil); err != nil {
				t.Fatal(err)
			}
			res, err := c.Select(ctx, view, version, region, k, theta, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Fallback {
				warm++
			}
			if len(res.Positions) == 0 || len(res.Positions) > k {
				t.Fatalf("q%d: selection size %d outside (0, %d]", q, len(res.Positions), k)
			}
			for _, p := range res.Positions {
				if !region.Contains(objs[p].Loc) {
					t.Fatalf("q%d: position %d outside the viewport", q, p)
				}
			}
			if !core.SatisfiesVisibility(objs, res.Positions, theta) {
				t.Fatalf("q%d: served selection violates θ-separation", q)
			}

			// Ground-truth score bound against the direct path.
			regionPos := view.Region(region)
			sub := view.Collection().Subset(regionPos)
			local := make(map[int]int, len(regionPos))
			for i, p := range regionPos {
				local[p] = i
			}
			sel := make([]int, len(res.Positions))
			for i, p := range res.Positions {
				li, ok := local[p]
				if !ok {
					t.Fatalf("q%d: position %d not in the region fetch", q, p)
				}
				sel[i] = li
			}
			dcfg := cfg.WithDefaults()
			dcfg.K = k
			dcfg.Theta = theta
			dcfg.ThetaFrac = 0
			direct, err := (&core.Selector{Config: dcfg, Objects: sub}).Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			served := core.Score(sub, sel, dcfg.Metric, core.AggMax)
			if served < direct.Score/8-1e-12 {
				t.Fatalf("q%d: served score %v below direct/8 = %v (direct %v)",
					q, served, direct.Score/8, direct.Score)
			}
		}
		if warm == 0 {
			t.Error("every viewport fell back; the stitched path went untested")
		}
	})
}

// TestWarmNavigateConsistency drives the session-facing hook directly:
// the forced set (isos D) must appear verbatim and first, positions
// outside the candidate set (isos G) must not newly appear, and the
// result is θ-separated — the contract that makes a warm navigation
// pass isos.CheckTransition by construction.
func TestWarmNavigateConsistency(t *testing.T) {
	store := testStore(t, 4000, 13)
	view, version := store.Snapshot()
	objs := view.Collection().Objects
	c := newTestCache(t, engine.Config{})
	ctx := context.Background()
	region := geo.Rect{Min: geo.Pt(0.2, 0.2), Max: geo.Pt(0.5, 0.45)}
	theta := 0.003 * region.Width()
	const k = 15

	// Seed a plausible D/G split from an unconstrained warm selection.
	base, _, _, ok := c.WarmNavigate(ctx, view, version, region, k, theta, nil, nil)
	if !ok {
		t.Fatal("unconstrained warm navigation declined")
	}
	if len(base) == 0 {
		t.Fatal("empty base selection")
	}
	forced := base[:1]
	candidates := view.Region(region)

	pos, score, regionObjects, ok := c.WarmNavigate(ctx, view, version, region, k, theta, forced, candidates)
	if !ok {
		t.Fatal("constrained warm navigation declined")
	}
	if len(pos) == 0 || len(pos) > k {
		t.Fatalf("selection size %d outside (0, %d]", len(pos), k)
	}
	if pos[0] != forced[0] {
		t.Fatalf("forced position %d not kept first (got %d)", forced[0], pos[0])
	}
	cand := make(map[int]bool, len(candidates))
	for _, p := range candidates {
		cand[p] = true
	}
	for _, p := range pos[1:] {
		if !cand[p] {
			t.Fatalf("position %d outside the candidate set", p)
		}
	}
	if !core.SatisfiesVisibility(objs, pos, theta) {
		t.Fatal("warm navigation violates θ-separation")
	}
	if score < 0 || regionObjects != view.CountRegion(region) {
		t.Fatalf("score %v regionObjects %d inconsistent", score, regionObjects)
	}

	// A candidate set excluding most of the region carries too much
	// gain mass to ignore: the cache must decline, not serve a gutted
	// selection.
	if len(candidates) > 2 {
		tiny := candidates[:2]
		if _, _, _, ok := c.WarmNavigate(ctx, view, version, region, k, theta, nil, tiny); ok {
			t.Fatal("heavily constrained navigation served instead of declining")
		}
	}
	if c.Stats().WarmNavigations == 0 || c.Stats().WarmNavMisses == 0 {
		t.Errorf("warm navigation counters not recorded: %+v", c.Stats())
	}

	// The candidate set lives in the pooled scratch: a warm navigation
	// allocates its result and nothing else.
	if raceEnabled || invariant.Enabled {
		return // the race detector drops pooled items; assertions allocate
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, _, ok := c.WarmNavigate(ctx, view, version, region, k, theta, forced, candidates); !ok {
			panic("constrained warm navigation declined mid-measurement")
		}
	})
	if allocs != 1 {
		t.Fatalf("a constrained warm navigation allocates %v objects, want 1 (its positions)", allocs)
	}
}
