package experiments

import (
	"context"
	"fmt"
	"time"

	"geosel/internal/core"
	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/isos"
	"geosel/internal/sim"
)

// isosMode identifies the implementations compared in the isos
// experiments.
type isosMode int

const (
	// modeFullReselect re-solves the plain sos problem on the new
	// region from scratch: a system with no interactive machinery at
	// all (no consistency constraints, no prefetch).
	modeFullReselect isosMode = iota
	// modeGreedy is the consistency-aware greedy (Greedy-in/out/pan):
	// D/G-constrained selection with a cold heap.
	modeGreedy
	// modePrefetch is modeGreedy with prefetched upper bounds
	// (Pre-in/out/pan).
	modePrefetch
	// modeSelfSeeded is modeGreedy on bare Cosine, whose linear row
	// sums let a cold run bound its own heap (Self-in/out/pan).
	modeSelfSeeded
)

func (m isosMode) label(op string) string {
	switch m {
	case modeFullReselect:
		return "Reselect-" + op
	case modeGreedy:
		return "Greedy-" + op
	case modePrefetch:
		return "Pre-" + op
	default:
		return "Self-" + op
	}
}

// metric returns the mode's similarity metric. The paper's baselines
// pay Algorithm 1's exact heap initialization, which core only does for
// a metric it cannot see into: they run Cosine behind a sim.Func.
func (m isosMode) metric() sim.Metric {
	if m == modeFullReselect || m == modeGreedy {
		return sim.Func(sim.Cosine{}.Sim)
	}
	return Metric()
}

// isosTrial measures one navigation operation in one mode. It returns
// the selection response time (excluding prefetch, which happens during
// user think time) and the prefetch cost (zero for cold modes).
func (e *Env) isosTrial(store *geodata.Store, mode isosMode, op geo.Op, region geo.Rect,
	zoomScale, panOverlap float64, k int, thetaFrac float64, rngID string) (response, prefetchCost time.Duration, err error) {

	rng := e.rng(rngID)
	// Plain Lemma 5.1-5.3 bounds, as in the paper, computed during think
	// time; the response path reads its candidates' bounds from them
	// (on Cosine from the envelope aggregate, O(nnz) per candidate).
	// Timed single-threaded, matching the paper's measurement setup.
	ctx := context.Background()
	cfg := isos.Config{Config: engine.Config{
		K: k, ThetaFrac: thetaFrac, Metric: mode.metric(), MaxZoomOutScale: 2,
	}}
	if op == geo.OpZoomOut && zoomScale > cfg.MaxZoomOutScale {
		// Cover exactly the swept zoom-out scale: the prefetch envelope
		// (and its O(|OA|²) cost) grows with the square of this bound.
		cfg.MaxZoomOutScale = zoomScale
	}
	sess, err := isos.NewSession(store, cfg)
	if err != nil {
		return 0, 0, err
	}
	if _, err = sess.Start(ctx, region); err != nil {
		return 0, 0, err
	}
	if mode == modePrefetch {
		prefetchCost = timeIt(func() { err = sess.Prefetch(ctx, op) })
		if err != nil {
			return 0, 0, err
		}
	}

	// Build the target region.
	var target geo.Rect
	switch op {
	case geo.OpZoomIn:
		target, err = dataset.RandomZoomIn(region, zoomScale, rng)
	case geo.OpZoomOut:
		target, err = dataset.RandomZoomOut(region, zoomScale, rng)
	default:
		var d geo.Point
		d, err = dataset.RandomPan(region, panOverlap, rng)
		target = region.Translate(d)
	}
	if err != nil {
		return 0, 0, err
	}

	if mode == modeFullReselect {
		objs := store.Collection().Subset(store.Region(target))
		theta := thetaFrac * target.Side()
		response = timeIt(func() {
			s := &core.Selector{Config: engine.Config{K: k, Theta: theta, Metric: mode.metric()}, Objects: objs}
			_, err = s.Run(ctx)
		})
		return response, 0, err
	}

	var sel *isos.Selection
	switch op {
	case geo.OpZoomIn:
		sel, err = sess.ZoomIn(ctx, target)
	case geo.OpZoomOut:
		sel, err = sess.ZoomOut(ctx, target)
	default:
		sel, err = sess.Pan(ctx, target.Min.Sub(region.Min))
	}
	if err != nil {
		return 0, 0, err
	}
	if mode == modePrefetch && !sel.Prefetched {
		return 0, 0, fmt.Errorf("experiments: prefetch missed for %v", op)
	}
	return sel.Elapsed, prefetchCost, nil
}

// averageISOS repeats isosTrial over the given query regions. The
// per-trial rng id depends only on baseID and the query index, so every
// mode replays identical navigation targets on identical regions.
func (e *Env) averageISOS(store *geodata.Store, mode isosMode, op geo.Op,
	regions []geo.Rect, zoomScale, panOverlap float64, k int, thetaFrac float64, baseID string) (time.Duration, time.Duration, error) {

	var resp, pf time.Duration
	for q, region := range regions {
		r, p, err := e.isosTrial(store, mode, op, region, zoomScale, panOverlap, k, thetaFrac,
			fmt.Sprintf("%s-q%d", baseID, q))
		if err != nil {
			return 0, 0, err
		}
		resp += r
		pf += p
	}
	n := time.Duration(len(regions))
	return resp / n, pf / n, nil
}

// opsTriple is the (op, zoomScale, panOverlap) grid of the three
// navigation operations at Table 2 defaults.
var opsTriple = []struct {
	name    string
	op      geo.Op
	scale   float64
	overlap float64
}{
	{"in", geo.OpZoomIn, DefaultZoomInScale, 0},
	{"out", geo.OpZoomOut, DefaultZoomOutScale, 0},
	{"pan", geo.OpPan, 0, 0.5},
}

// PrefetchComparison regenerates Figure 13: response time of the
// consistency-aware greedy with and without prefetching for the three
// operations on UK, plus the no-machinery full re-selection baseline
// and the self-seeded cold run.
func (e *Env) PrefetchComparison(id string) (*Table, error) {
	store, err := e.UK()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      id,
		Title:   "Pre-fetching vs non-fetching on UK (response time per navigation op)",
		Columns: []string{"op", "mode", "response_s", "prefetch_cost_s"},
		Notes: []string{
			"paper: prefetching improves Greedy-in/out/pan by ~2/1/1 orders of magnitude",
			"Reselect-* = full sos re-selection (no interactive machinery), for reference",
			"prefetch cost is paid during user think time, not in the response path",
			"Reselect-* and Greedy-* run Cosine behind an opaque sim.Func: exact heap init as published, and an interface call per pair where Pre-*/Self-* read packed rows",
			"Self-* = Greedy-* on bare Cosine: the cold run seeds its heap from its own linear row sums (sim.Rows.RowSums)",
		},
	}
	regions, err := e.regionSet(store, DefaultRegionFrac*isosRegionScale, e.rng(id+"regions"))
	if err != nil {
		return nil, err
	}
	for _, o := range opsTriple {
		for _, mode := range []isosMode{modeFullReselect, modeGreedy, modePrefetch, modeSelfSeeded} {
			resp, pf, err := e.averageISOS(store, mode, o.op,
				regions, o.scale, o.overlap, DefaultK, DefaultThetaFrac,
				fmt.Sprintf("%s-%s", id, o.name))
			if err != nil {
				return nil, err
			}
			t.AddRow(o.name, mode.label(o.name), fdur(resp), fdur(pf))
		}
	}
	return t, nil
}

// ZoomPanSweep regenerates Figure 14: response time versus zoom-in
// scale, zoom-out scale and panning overlap on UK, for Greedy-* vs
// Pre-*.
func (e *Env) ZoomPanSweep(id string) (*Table, error) {
	store, err := e.UK()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      id,
		Title:   "Varying zooming scale and panning overlap on UK",
		Columns: []string{"sweep", "value", "mode", "response_s"},
		Notes: []string{
			"paper: Greedy-in scales linearly, Pre-in sub-linearly; prefetch gain shrinks as pan overlap → 100%",
			"zoom-out sweep uses a base region of 1/4 the default side so the 2³ target stays tractable",
		},
	}
	type sweep struct {
		name       string
		op         geo.Op
		regionFrac float64
		values     []float64
	}
	base := DefaultRegionFrac * isosRegionScale
	sweeps := []sweep{
		{"zoom-in", geo.OpZoomIn, base, []float64{0.125, 0.177, 0.25, 0.354, 0.5}},
		{"zoom-out", geo.OpZoomOut, base / 4, []float64{2, 2.83, 4, 5.66, 8}},
		{"pan-overlap", geo.OpPan, base, []float64{0.1, 0.3, 0.5, 0.7, 0.9}},
	}
	for _, sw := range sweeps {
		regions, err := e.regionSet(store, sw.regionFrac, e.rng(id+sw.name+"regions"))
		if err != nil {
			return nil, err
		}
		for _, v := range sw.values {
			scale, overlap := v, 0.0
			if sw.op == geo.OpPan {
				scale, overlap = 0, v
			}
			for _, mode := range []isosMode{modeGreedy, modePrefetch} {
				resp, _, err := e.averageISOS(store, mode, sw.op,
					regions, scale, overlap, DefaultK, DefaultThetaFrac,
					fmt.Sprintf("%s-%s-%g", id, sw.name, v))
				if err != nil {
					return nil, err
				}
				t.AddRow(sw.name, fmt.Sprintf("%g", v), mode.label(opName(sw.op)), fdur(resp))
			}
		}
	}
	return t, nil
}

func opName(op geo.Op) string {
	switch op {
	case geo.OpZoomIn:
		return "in"
	case geo.OpZoomOut:
		return "out"
	default:
		return "pan"
	}
}

// ISOSRegionSweep regenerates Figure 20 (F.1): response time versus
// query region size for the six isos variants on UK.
func (e *Env) ISOSRegionSweep(id string) (*Table, error) {
	return e.isosParamSweep(id, "region_size_e-2", []float64{0.25, 0.5, 1, 2, 4},
		"paper: runtimes stay stable with region size; Pre-* below Greedy-* by 1-3 orders",
		func(v float64) (regionFrac float64, k int, thetaFrac float64) {
			return v / 100 * isosRegionScale, DefaultK, DefaultThetaFrac
		})
}

// ISOSKSweep regenerates Figure 21 (F.2): response time versus k.
func (e *Env) ISOSKSweep(id string) (*Table, error) {
	return e.isosParamSweep(id, "k", []float64{60, 80, 100, 120, 140},
		"paper: response grows with k; prefetch helps up to 2 orders of magnitude",
		func(v float64) (float64, int, float64) {
			return DefaultRegionFrac * isosRegionScale, int(v), DefaultThetaFrac
		})
}

// ISOSThetaSweep regenerates Figure 22 (F.3): response time versus θ.
func (e *Env) ISOSThetaSweep(id string) (*Table, error) {
	return e.isosParamSweep(id, "theta_e-3", []float64{1, 2, 3, 4, 5},
		"paper: trends mirror the sos case (stable in theta)",
		func(v float64) (float64, int, float64) {
			return DefaultRegionFrac * isosRegionScale, DefaultK, v / 1000
		})
}

func (e *Env) isosParamSweep(id, param string, values []float64, note string,
	decode func(float64) (float64, int, float64)) (*Table, error) {
	store, err := e.UK()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("isos: varying %s on UK", param),
		Columns: []string{param, "mode", "response_s"},
		Notes:   []string{note},
	}
	for _, v := range values {
		regionFrac, k, thetaFrac := decode(v)
		regions, err := e.regionSet(store, regionFrac, e.rng(id+"regions"))
		if err != nil {
			return nil, err
		}
		for _, o := range opsTriple {
			for _, mode := range []isosMode{modeGreedy, modePrefetch} {
				resp, _, err := e.averageISOS(store, mode, o.op,
					regions, o.scale, o.overlap, k, thetaFrac,
					fmt.Sprintf("%s-%g-%s", id, v, o.name))
				if err != nil {
					return nil, err
				}
				t.AddRow(fmt.Sprintf("%g", v), mode.label(o.name), fdur(resp))
			}
		}
	}
	return t, nil
}

// ISOSScalability regenerates Figure 23 (F.4): isos response time
// versus dataset size on UK upscaled 1×–2×.
func (e *Env) ISOSScalability(id string) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   "isos scalability: response time vs dataset size (UK upscaled)",
		Columns: []string{"upscale", "mode", "response_s"},
		Notes:   []string{"paper: trends mirror the sos scalability results"},
	}
	for _, sc := range []float64{1, 1.5, 2} {
		n := int(float64(e.Cfg.UKSize) * sc)
		store, err := dataset.GenerateStore(tuneSpec(dataset.UKSpec(n, e.Cfg.Seed+9)))
		if err != nil {
			return nil, err
		}
		regions, err := e.regionSet(store, DefaultRegionFrac*isosRegionScale, e.rng(id+"regions"))
		if err != nil {
			return nil, err
		}
		for _, o := range opsTriple {
			for _, mode := range []isosMode{modeGreedy, modePrefetch} {
				resp, _, err := e.averageISOS(store, mode, o.op,
					regions, o.scale, o.overlap, DefaultK, DefaultThetaFrac,
					fmt.Sprintf("%s-%g-%s", id, sc, o.name))
				if err != nil {
					return nil, err
				}
				t.AddRow(fmt.Sprintf("%.2f", sc), mode.label(o.name), fdur(resp))
			}
		}
	}
	return t, nil
}
