package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"geosel/internal/baselines"
	"geosel/internal/core"
	"geosel/internal/dataset"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sampling"
)

// sosRun measures one method on one query region: the selection runtime
// (measured, as in the paper, after the region objects are fetched) and
// the representative score of its result over the region objects.
type sosRun struct {
	runtime time.Duration
	score   float64
	// sampleRatio and scoreDiff are filled for SaSS only.
	sampleRatio float64
	scoreDiff   float64
}

// runMethod executes one named method. objs are the region objects.
func runMethod(method string, objs []geodata.Object, k int, theta float64, rng *rand.Rand) (sosRun, error) {
	m := Metric()
	var out sosRun
	var sel []int
	var err error
	out.runtime = timeIt(func() {
		switch method {
		case baselines.NameGreedy:
			var res *core.Result
			// Timed single-threaded, matching the paper's measurement setup.
			s := &core.Selector{Config: engine.Config{K: k, Theta: theta, Metric: m}, Objects: objs}
			res, err = s.Run(context.Background())
			if err == nil {
				sel = res.Selected
				out.score = res.Score
			}
		case baselines.NameSaSS:
			var res *sampling.Result
			res, err = sampling.Run(context.Background(), objs, sampling.Config{
				Config: engine.Config{K: k, Theta: theta, Metric: m},
				Eps:    DefaultEps, Delta: DefaultDelta,
			})
			if err == nil {
				sel = res.Selected
				out.sampleRatio = float64(res.SampleSize) / float64(max(1, len(objs)))
				out.score = core.Score(objs, sel, m, core.AggMax)
				out.scoreDiff = abs(out.score - res.SampleScore)
			}
		case baselines.NameRandom:
			sel = baselines.Random(objs, k, theta, rng)
			out.score = core.Score(objs, sel, m, core.AggMax)
		case baselines.NameMaxMin:
			sel = baselines.MaxMin(objs, k, m)
			out.score = core.Score(objs, sel, m, core.AggMax)
		case baselines.NameMaxSum:
			sel = baselines.MaxSum(objs, k, m)
			out.score = core.Score(objs, sel, m, core.AggMax)
		case baselines.NameDisC:
			sel, _ = baselines.DisCWithSize(objs, k, m)
			out.score = core.Score(objs, sel, m, core.AggMax)
		case baselines.NameKMeans:
			sel = baselines.KMeans(objs, k, 30, rng)
			out.score = core.Score(objs, sel, m, core.AggMax)
		default:
			err = fmt.Errorf("experiments: unknown method %q", method)
		}
	})
	return out, err
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// regionSet draws the environment's query count of random regions; a
// sweep computes it once so every method and parameter value measures
// the same regions (paired comparisons, not fresh noise per cell).
func (e *Env) regionSet(store *geodata.Store, regionFrac float64, rng *rand.Rand) ([]geo.Rect, error) {
	regions := make([]geo.Rect, e.Cfg.Queries)
	for i := range regions {
		region, err := dataset.RandomRegion(store, regionFrac, rng)
		if err != nil {
			return nil, err
		}
		regions[i] = region
	}
	return regions, nil
}

// averageMethod runs a method over the given query regions and averages
// the measurements. A method that draws random numbers draws them from
// its own stream, e.rng(stream + "/" + method), stream being the id
// that seeded the regions: one method's draws cannot move another
// method's rows, nor the regions a sweep draws after it.
func (e *Env) averageMethod(store *geodata.Store, method string, regions []geo.Rect, k int, thetaFrac float64, stream string) (sosRun, error) {
	rng := e.rng(stream + "/" + method)
	var acc sosRun
	for _, region := range regions {
		objs := store.Collection().Subset(store.Region(region))
		theta := thetaFrac * region.Side()
		r, err := runMethod(method, objs, k, theta, rng)
		if err != nil {
			return sosRun{}, err
		}
		acc.runtime += r.runtime
		acc.score += r.score
		acc.sampleRatio += r.sampleRatio
		acc.scoreDiff += r.scoreDiff
	}
	q := len(regions)
	acc.runtime /= time.Duration(q)
	acc.score /= float64(q)
	acc.sampleRatio /= float64(q)
	acc.scoreDiff /= float64(q)
	return acc, nil
}

// MethodComparison regenerates Figure 7 (UK) or Figure 8 (POI): every
// method's average runtime and representative score at Table 2
// defaults.
func (e *Env) MethodComparison(id, storeName string) (*Table, error) {
	store, err := e.storeByName(storeName)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("Comparing methods on %s (runtime & representative score)", storeName),
		Columns: []string{"method", "runtime_s", "score"},
		Notes: []string{
			"paper: Greedy ≈ Random runtime, ≈ 2/3 of K-means; Greedy best score; SaSS fastest with near-Greedy score",
		},
	}
	methods := []string{
		baselines.NameGreedy, baselines.NameSaSS, baselines.NameRandom,
		baselines.NameKMeans, baselines.NameMaxMin, baselines.NameMaxSum,
		baselines.NameDisC,
	}
	regions, err := e.regionSet(store, DefaultRegionFrac*regionScale(storeName), e.rng(id))
	if err != nil {
		return nil, err
	}
	for _, method := range methods {
		r, err := e.averageMethod(store, method, regions, DefaultK, DefaultThetaFrac, id)
		if err != nil {
			return nil, err
		}
		t.AddRow(method, fdur(r.runtime), fnum(r.score))
	}
	return t, nil
}

// SamplingSweep regenerates Figure 9 (vary ε) or Figure 10 (vary δ) on
// the US dataset: SaSS runtime, sampling ratio and score difference,
// with Random's runtime for reference.
func (e *Env) SamplingSweep(id string, varyEps bool) (*Table, error) {
	store, err := e.US()
	if err != nil {
		return nil, err
	}
	rng := e.rng(id)
	name, values := "delta", []float64{0.08, 0.09, 0.1, 0.11, 0.12}
	if varyEps {
		name, values = "eps", []float64{0.03, 0.04, 0.05, 0.06, 0.07}
	}
	// The paper's US regions hold tens to hundreds of thousands of
	// tweets; the scaled dataset needs a larger region fraction to put
	// tens of thousands of objects in play, which is the regime where
	// the sampling ratio lands in the paper's <= 2%.
	samplingRegionFrac := 4 * DefaultRegionFrac * regionScale("US")
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("SaSS on US varying %s", name),
		Columns: []string{name, "sass_runtime_s", "random_runtime_s", "sampling_ratio", "score_diff"},
		Notes: []string{
			"paper: ratio grows with smaller errors; <= 2% of data suffices; score_diff < 0.01",
		},
	}
	// Share the query regions across the sweep so rows differ only in
	// the swept parameter.
	regions, err := e.regionSet(store, samplingRegionFrac, rng)
	if err != nil {
		return nil, err
	}
	for _, v := range values {
		eps, delta := DefaultEps, DefaultDelta
		if varyEps {
			eps = v
		} else {
			delta = v
		}
		var accS, accR time.Duration
		var accRatio, accDiff float64
		for q := 0; q < e.Cfg.Queries; q++ {
			region := regions[q]
			objs := store.Collection().Subset(store.Region(region))
			theta := DefaultThetaFrac * region.Side()
			var err error
			var sres *sampling.Result
			accS += timeIt(func() {
				sres, err = sampling.Run(context.Background(), objs, sampling.Config{
					Config: engine.Config{K: DefaultK, Theta: theta, Metric: Metric()},
					Eps:    eps, Delta: delta,
				})
			})
			if err != nil {
				return nil, err
			}
			accRatio += float64(sres.SampleSize) / float64(max(1, len(objs)))
			full := core.Score(objs, sres.Selected, Metric(), core.AggMax)
			accDiff += abs(full - sres.SampleScore)
			accR += timeIt(func() {
				baselines.Random(objs, DefaultK, theta, rng)
			})
		}
		q := float64(e.Cfg.Queries)
		t.AddRow(fnum(v), fdur(accS/time.Duration(e.Cfg.Queries)),
			fdur(accR/time.Duration(e.Cfg.Queries)), fnum(accRatio/q), fnum(accDiff/q))
	}
	return t, nil
}

// RegionSizeSweep regenerates Figure 11: runtime versus query region
// size on UK, POI (Greedy vs Random) and US (SaSS vs Random).
func (e *Env) RegionSizeSweep(id string) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   "Varying query region size (×10⁻² of dataset side)",
		Columns: []string{"dataset", "region_size", "method", "runtime_s"},
		Notes: []string{
			"paper: runtime grows roughly linearly with region size for Greedy; SaSS stays low",
		},
	}
	sizes := []float64{0.25, 0.5, 1, 2, 4} // ×10⁻²
	for _, spec := range []struct {
		name   string
		method string
	}{{"UK", baselines.NameGreedy}, {"POI", baselines.NameGreedy}, {"US", baselines.NameSaSS}} {
		store, err := e.storeByName(spec.name)
		if err != nil {
			return nil, err
		}
		stream := id + spec.name
		rng := e.rng(stream)
		for _, s := range sizes {
			frac := s / 100 * sweepRegionScale(spec.name)
			regions, err := e.regionSet(store, frac, rng)
			if err != nil {
				return nil, err
			}
			for _, method := range []string{spec.method, baselines.NameRandom} {
				r, err := e.averageMethod(store, method, regions, DefaultK, DefaultThetaFrac, stream)
				if err != nil {
					return nil, err
				}
				t.AddRow(spec.name, fmt.Sprintf("%.2f", s), method, fdur(r.runtime))
			}
		}
	}
	return t, nil
}

// KSweep regenerates Figure 18 (Appendix E.1): runtime versus the
// number of selected objects k.
func (e *Env) KSweep(id string) (*Table, error) {
	return e.paramSweep(id, "k", []float64{60, 80, 100, 120, 140},
		"paper: runtime increases with k for all algorithms",
		func(v float64) (int, float64) { return int(v), DefaultThetaFrac })
}

// ThetaSweep regenerates Figure 19 (Appendix E.2): runtime versus the
// visibility threshold θ (×10⁻³ of the region side).
func (e *Env) ThetaSweep(id string) (*Table, error) {
	return e.paramSweep(id, "theta_e-3", []float64{1, 2, 3, 4, 5},
		"paper: runtime stays stable regardless of theta",
		func(v float64) (int, float64) { return DefaultK, v / 1000 })
}

// paramSweep runs the k/θ sweeps over the three datasets with their
// designated methods.
func (e *Env) paramSweep(id, param string, values []float64, note string, decode func(float64) (int, float64)) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("Varying %s", param),
		Columns: []string{"dataset", param, "method", "runtime_s"},
		Notes:   []string{note},
	}
	for _, spec := range []struct {
		name   string
		method string
	}{{"UK", baselines.NameGreedy}, {"POI", baselines.NameGreedy}, {"US", baselines.NameSaSS}} {
		store, err := e.storeByName(spec.name)
		if err != nil {
			return nil, err
		}
		stream := id + spec.name
		regions, err := e.regionSet(store, DefaultRegionFrac*regionScale(spec.name), e.rng(stream))
		if err != nil {
			return nil, err
		}
		for _, v := range values {
			k, thetaFrac := decode(v)
			for _, method := range []string{spec.method, baselines.NameRandom} {
				r, err := e.averageMethod(store, method, regions, k, thetaFrac, stream)
				if err != nil {
					return nil, err
				}
				t.AddRow(spec.name, fmt.Sprintf("%g", v), method, fdur(r.runtime))
			}
		}
	}
	return t, nil
}

// Scalability regenerates Figure 12: runtime versus dataset size, UK
// upscaled 1×–2× with Greedy, US upscaled 1×–2× with SaSS.
func (e *Env) Scalability(id string) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   "Scalability: runtime vs dataset size",
		Columns: []string{"dataset", "upscale", "method", "runtime_s"},
		Notes: []string{
			"paper: Greedy grows with data size (denser regions); SaSS changes only slightly",
			fmt.Sprintf("base sizes scaled: UK=%d, US=%d (paper: 1M-2M / 100M-200M)", e.Cfg.UKSize, e.Cfg.USSize),
		},
	}
	scales := []float64{1, 1.25, 1.5, 1.75, 2}
	for _, specCase := range []struct {
		name   string
		base   int
		method string
		mk     func(n int, seed int64) dataset.Spec
	}{
		{"UK", e.Cfg.UKSize, baselines.NameGreedy, dataset.UKSpec},
		{"US", e.Cfg.USSize, baselines.NameSaSS, dataset.USSpec},
	} {
		stream := id + specCase.name
		rng := e.rng(stream)
		for _, sc := range scales {
			n := int(float64(specCase.base) * sc)
			store, err := dataset.GenerateStore(tuneSpec(specCase.mk(n, e.Cfg.Seed+7)))
			if err != nil {
				return nil, err
			}
			regions, err := e.regionSet(store, DefaultRegionFrac*regionScale(specCase.name), rng)
			if err != nil {
				return nil, err
			}
			for _, method := range []string{specCase.method, baselines.NameRandom} {
				r, err := e.averageMethod(store, method, regions, DefaultK, DefaultThetaFrac, stream)
				if err != nil {
					return nil, err
				}
				t.AddRow(specCase.name, fmt.Sprintf("%.2f", sc), method, fdur(r.runtime))
			}
		}
	}
	return t, nil
}

func (e *Env) storeByName(name string) (*geodata.Store, error) {
	switch name {
	case "UK":
		return e.UK()
	case "POI":
		return e.POI()
	case "US":
		return e.US()
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
}
