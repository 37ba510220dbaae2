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
	"geosel/internal/sampling"
)

// Ablations regenerates the design-choice comparisons DESIGN.md §5
// calls out, as one table: each row isolates one mechanism and reports
// the runtime (and where meaningful, the work metric) with it on and
// off. Not a paper exhibit — the paper asserts these choices; the
// ablations quantify them on this implementation.
func (e *Env) Ablations(id string) (*Table, error) {
	store, err := e.UK()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      id,
		Title:   "Design-choice ablations (UK defaults)",
		Columns: []string{"mechanism", "variant", "runtime_s", "work"},
		Notes: []string{
			"lazy forward work = marginal evaluations; fewer is better",
		},
	}
	rng := e.rng(id)
	region, err := dataset.RandomRegion(store, DefaultRegionFrac*regionScale("UK"), rng)
	if err != nil {
		return nil, err
	}
	objs := store.Collection().Subset(store.Region(region))
	theta := DefaultThetaFrac * region.Side()
	m := Metric()

	// Lazy forward vs naive greedy. The naive variant is O(k·|G|)
	// marginal evaluations; cap the instance so it terminates promptly.
	lazyObjs := objs
	if len(lazyObjs) > 1500 {
		lazyObjs = lazyObjs[:1500]
	}
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"lazy-forward", false}, {"naive", true}} {
		var res *core.Result
		d := timeIt(func() {
			// Timed single-threaded, matching the paper's measurement setup.
			s := &core.Selector{Config: engine.Config{K: DefaultK, Theta: theta,
				Metric: m, DisableLazy: variant.disable}, Objects: lazyObjs}
			res, err = s.Run(context.Background())
		})
		if err != nil {
			return nil, err
		}
		t.AddRow("marginal-evaluation", variant.name, fdur(d), fmt.Sprintf("%d evals", res.Evals))
	}

	// Grid-assisted conflict removal vs linear scan.
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"grid", false}, {"linear", true}} {
		d := timeIt(func() {
			s := &core.Selector{Config: engine.Config{K: DefaultK, Theta: theta,
				Metric: m, DisableGrid: variant.disable}, Objects: objs}
			_, err = s.Run(context.Background())
		})
		if err != nil {
			return nil, err
		}
		t.AddRow("conflict-removal", variant.name, fdur(d), "")
	}

	// Serfling vs Hoeffding sample sizing, end to end.
	for _, bound := range []sampling.Bound{sampling.BoundSerfling, sampling.BoundHoeffding} {
		var sres *sampling.Result
		d := timeIt(func() {
			sres, err = sampling.Run(context.Background(), objs, sampling.Config{
				Config: engine.Config{K: DefaultK, Theta: theta, Metric: m},
				Eps:    DefaultEps, Delta: DefaultDelta, Bound: bound,
			})
		})
		if err != nil {
			return nil, err
		}
		t.AddRow("sample-bound", bound.String(), fdur(d), fmt.Sprintf("%d samples", sres.SampleSize))
	}

	// Lemma 5.1–5.3 prefetch bounds for a zoom-in: what the bound pass
	// costs and what the bound-seeded response then takes.
	inner, err := dataset.RandomZoomIn(region, DefaultZoomInScale, rng)
	if err != nil {
		return nil, err
	}
	resp, pf, err := e.isosTrialPrefetch(store, region, inner)
	if err != nil {
		return nil, err
	}
	t.AddRow("prefetch-bounds", "plain-lemma", fdur(resp), fmt.Sprintf("prefetch cost %s", fdur(pf)))
	return t, nil
}

// isosTrialPrefetch runs one prefetched zoom-in and returns (response,
// prefetch cost).
func (e *Env) isosTrialPrefetch(store *geodata.Store, region, inner geo.Rect) (time.Duration, time.Duration, error) {
	// Timed single-threaded, matching the paper's measurement setup.
	ctx := context.Background()
	sess, err := isos.NewSession(store, isos.Config{
		Config: engine.Config{K: DefaultK, ThetaFrac: DefaultThetaFrac,
			Metric: Metric()},
	})
	if err != nil {
		return 0, 0, err
	}
	if _, err := sess.Start(ctx, region); err != nil {
		return 0, 0, err
	}
	pf := timeIt(func() { err = sess.Prefetch(ctx, geo.OpZoomIn) })
	if err != nil {
		return 0, 0, err
	}
	sel, err := sess.ZoomIn(ctx, inner)
	if err != nil {
		return 0, 0, err
	}
	return sel.Elapsed, pf, nil
}
