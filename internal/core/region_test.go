package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"geosel/internal/engine"
	"geosel/internal/geodata"
	"geosel/internal/sim"
)

// byHand is the sequence SelectRegion replaced, written out the way its
// five callers used to: Subset, a position → subset-index map, D and G
// re-indexed (strangers dropped, D trimmed to k), one Selector, and the
// selection mapped back.
func byHand(t *testing.T, cfg engine.Config, col *geodata.Collection, pos []int, k int, theta float64, forced, cands []int, bounds []float64) (*Result, []int) {
	t.Helper()
	cfg.K, cfg.Theta = k, theta
	sel := &Selector{Config: cfg, Objects: col.Subset(pos)}
	subsetOf := make(map[int]int, len(pos))
	for i, p := range pos {
		subsetOf[p] = i
	}
	for _, p := range forced {
		if i, ok := subsetOf[p]; ok {
			sel.Forced = append(sel.Forced, i)
		}
	}
	if len(sel.Forced) > k {
		sel.Forced = sel.Forced[:k]
	}
	if cands != nil {
		sel.Candidates = []int{}
		for j, p := range cands {
			i, ok := subsetOf[p]
			if !ok {
				continue
			}
			sel.Candidates = append(sel.Candidates, i)
			if bounds != nil {
				sel.InitialGains = append(sel.InitialGains, bounds[j])
			}
		}
	}
	res := mustRun(t, sel)
	positions := make([]int, len(res.Selected))
	for i, s := range res.Selected {
		positions[i] = pos[s]
	}
	return res, positions
}

// TestSelectRegionMatchesSelector pins the seam's contract: whatever
// the shape of the problem, SelectRegion returns bitwise what the
// hand-written sequence returns — positions, gains, score and
// evaluation count.
func TestSelectRegionMatchesSelector(t *testing.T) {
	col := &geodata.Collection{Objects: testObjects(1500, 91)}
	rng := rand.New(rand.NewSource(92))
	// The region: 700 of the 1500 positions, ascending
	// the way a grid scan might return them.
	sorted := rng.Perm(len(col.Objects))[:700]
	slices.Sort(sorted)
	shuffled := slices.Clone(sorted)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	inRegion := make(map[int]bool, len(sorted))
	var wsum float64
	for _, p := range sorted {
		inRegion[p] = true
		wsum += col.Objects[p].Weight
	}

	const k, theta = 12, 0.03
	// D: a θ-separated set inside the region — the first picks of a
	// plain run. G: strangers, then every other region object. The
	// bounds are the trivial one (Sim <= 1) scaled up by a per-candidate
	// factor, so a bound read for the wrong candidate shows.
	plain, err := SelectRegion(context.Background(), engine.Config{Metric: sim.Cosine{}},
		col, sorted, k, theta, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := slices.Clone(plain.Positions[:6])
	var strangers []int
	for p := range col.Objects {
		if !inRegion[p] {
			strangers = append(strangers, p)
		}
	}
	g := slices.Clone(strangers[:40])
	for _, p := range sorted {
		if !slices.Contains(d, p) {
			g = append(g, p)
		}
	}
	bounds := make([]float64, len(g))
	for j := range bounds {
		bounds[j] = wsum * (1 + float64(j%7)/8)
	}
	dWithStrangers := append(slices.Clone(strangers[40:43]), d...)

	cases := []struct {
		name          string
		pos           []int
		k             int
		forced, cands []int
		bounds        []float64
		wantForced    int
		wantCands     int
	}{
		{name: "plain", pos: sorted, k: k, wantCands: 700},
		{name: "D+G", pos: sorted, k: k, forced: d, cands: g, wantForced: 6, wantCands: 694},
		{name: "D+G+bounds", pos: sorted, k: k, forced: d, cands: g, bounds: bounds, wantForced: 6, wantCands: 694},
		{name: "D partly outside pos", pos: sorted, k: k, forced: dWithStrangers, cands: g, wantForced: 6, wantCands: 694},
		{name: "|D| > k", pos: sorted, k: 4, forced: d, cands: g, wantForced: 4, wantCands: 694},
		{name: "empty G", pos: sorted, k: k, forced: d, cands: []int{}, wantForced: 6},
		{name: "pos unsorted, no D or G", pos: shuffled, k: k, wantCands: 700},
	}
	for name, m := range map[string]sim.Metric{"cosine": sim.Cosine{}, "hybrid": hybridMetric(t)} {
		cfg := engine.Config{Metric: m, K: 999, Theta: 9, ThetaFrac: 9} // all three overridden
		for _, tc := range cases {
			want, wantPos := byHand(t, cfg, col, tc.pos, tc.k, theta, tc.forced, tc.cands, tc.bounds)
			got, err := SelectRegion(context.Background(), cfg, col, tc.pos, tc.k, theta, tc.forced, tc.cands, tc.bounds, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", name, tc.name, err)
			}
			if !slices.Equal(got.Positions, wantPos) {
				t.Errorf("%s %s: positions %v, by hand %v", name, tc.name, got.Positions, wantPos)
			}
			if !slices.Equal(got.Gains, want.Gains) {
				t.Errorf("%s %s: gains differ by bits", name, tc.name)
			}
			if math.Float64bits(got.Score) != math.Float64bits(want.Score) {
				t.Errorf("%s %s: score %v, by hand %v", name, tc.name, got.Score, want.Score)
			}
			if got.Evals != want.Evals || got.Rounds != want.Rounds {
				t.Errorf("%s %s: evals/rounds %d/%d, by hand %d/%d", name, tc.name,
					got.Evals, got.Rounds, want.Evals, want.Rounds)
			}
			if got.RegionObjects != 700 || got.ForcedCount != tc.wantForced || got.CandidateCount != tc.wantCands {
				t.Errorf("%s %s: |O|, |D|, |G| = %d, %d, %d, want 700, %d, %d", name, tc.name,
					got.RegionObjects, got.ForcedCount, got.CandidateCount, tc.wantForced, tc.wantCands)
			}
		}
	}

	// A run that names positions looks them up in pos by binary search,
	// so it refuses a pos that is not strictly ascending.
	repeated := append(slices.Clone(sorted[:350]), sorted[349:]...)
	for _, tc := range []struct {
		name          string
		pos           []int
		forced, cands []int
	}{
		{"unsorted, D+G", shuffled, d, g},
		{"unsorted, D", shuffled, d, nil},
		{"unsorted, empty G", shuffled, nil, []int{}},
		{"repeated, D", repeated, d, nil},
	} {
		if _, err := SelectRegion(context.Background(), engine.Config{Metric: sim.Cosine{}},
			col, tc.pos, k, theta, tc.forced, tc.cands, nil, nil); err == nil {
			t.Errorf("%s: accepted a pos that is not strictly ascending", tc.name)
		}
	}
}

// TestSelectRegionAppendsToDst checks the buffer contract the tile
// cache's fallback relies on: positions land after what dst already
// holds, in dst's own backing array when it has room.
func TestSelectRegionAppendsToDst(t *testing.T) {
	col := &geodata.Collection{Objects: testObjects(200, 93)}
	pos := make([]int, 100)
	for i := range pos {
		pos[i] = 2 * i
	}
	cfg := engine.Config{Metric: sim.Cosine{}}
	fresh, err := SelectRegion(context.Background(), cfg, col, pos, 5, 0.05, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 1, 16)
	buf[0] = -7
	got, err := SelectRegion(context.Background(), cfg, col, pos, 5, 0.05, nil, nil, nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Positions[0] != -7 || !slices.Equal(got.Positions[1:], fresh.Positions) {
		t.Errorf("appended %v to [-7], want %v after it", got.Positions, fresh.Positions)
	}
	if &got.Positions[0] != &buf[0] {
		t.Error("positions left the caller's buffer although it had room")
	}
}

// TestHugeKReservesNothing: K arrives from requests, so it must not
// size an allocation. K = 1<<40 over 50 objects selects what K = 50
// selects; before the capacities were capped at the number of objects
// that can be selected, this died with "runtime: out of memory".
func TestHugeKReservesNothing(t *testing.T) {
	objs := testObjects(50, 94)
	for _, lazy := range []bool{true, false} {
		run := func(k int) *Result {
			return mustRun(t, &Selector{
				Config:  engine.Config{K: k, Theta: 0.02, Metric: sim.Cosine{}, DisableLazy: !lazy},
				Objects: objs, Forced: []int{3},
			})
		}
		want, got := run(50), run(1<<40)
		if !slices.Equal(got.Selected, want.Selected) || !slices.Equal(got.Gains, want.Gains) || got.Score != want.Score {
			t.Errorf("lazy=%v: K = 1<<40 selected %v, K = 50 selected %v", lazy, got.Selected, want.Selected)
		}
		if c := cap(got.Selected); c > len(objs) {
			t.Errorf("lazy=%v: Selected reserved %d slots for %d objects", lazy, c, len(objs))
		}
		if c := cap(got.Gains); c > 2*len(objs) {
			t.Errorf("lazy=%v: Gains reserved %d slots for %d objects", lazy, c, len(objs))
		}
	}
}

// TestConcurrentSelectRegionsShareNoArena runs selections of different
// sizes, metrics and shapes from several goroutines at once, each
// borrowing and returning pooled arenas, and holds every result to the
// one computed alone: a run must see nothing of another's arena.
func TestConcurrentSelectRegionsShareNoArena(t *testing.T) {
	col := &geodata.Collection{Objects: testObjects(1200, 95)}
	type job struct {
		m             sim.Metric
		pos           []int
		forced, cands []int
	}
	var jobs []job
	for i, n := range []int{60, 400, 1200, 150, 900} {
		pos := make([]int, n)
		for j := range pos {
			pos[j] = j * len(col.Objects) / n
		}
		m := sim.Metric(sim.Cosine{})
		if i%2 == 1 {
			m = hybridMetric(t)
		}
		jobs = append(jobs, job{m: m, pos: pos})
		jobs = append(jobs, job{m: m, pos: pos, forced: pos[:2], cands: pos[n/3:]})
	}
	run := func(j job) RegionResult {
		res, err := SelectRegion(context.Background(), engine.Config{Metric: j.m}, col, j.pos, 10, 0.02, j.forced, j.cands, nil, nil)
		if err != nil {
			t.Error(err)
		}
		return res
	}
	want := make([]RegionResult, len(jobs))
	for i, j := range jobs {
		want[i] = run(j)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for k := range jobs {
					i := (k*7 + g + r) % len(jobs)
					got := run(jobs[i])
					if !slices.Equal(got.Positions, want[i].Positions) || !slices.Equal(got.Gains, want[i].Gains) ||
						math.Float64bits(got.Score) != math.Float64bits(want[i].Score) || got.Evals != want[i].Evals {
						t.Errorf("goroutine %d job %d: result differs from the one computed alone", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
