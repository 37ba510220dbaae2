// Package sampling implements the paper's sampling extension (Section
// 6): sample size formulas from the Hoeffding and Serfling concentration
// inequalities and the SaSS algorithm (Algorithm 2), which runs the
// greedy selection on a uniform sample O' of O such that, with
// probability at least 1-δ, the representative score of the result is
// within ε of the score it would get on the full data.
//
// The sample draws on no random source: it is the m objects with the
// smallest hash of (ID, location), a draw that depends on the objects
// alone. It is uniform over the hash seed, so the 1-δ above is a
// probability over that seed (or over data drawn independently of the
// hash); with the seed fixed, a given region's sample, and whether it
// lands within ε, is the same on every call (DESIGN.md §7b).
package sampling

import (
	"context"
	"fmt"
	"math"
	"slices"

	"geosel/internal/core"
	"geosel/internal/engine"
	"geosel/internal/geodata"
)

// HoeffdingSize returns the sample size from Equation 6,
// min(⌈ln(2/δ)/(2ε²)⌉, n): the bound for an effectively infinite
// population.
func HoeffdingSize(n int, eps, delta float64) (int, error) {
	if err := checkParams(eps, delta); err != nil {
		return 0, err
	}
	m := int(math.Ceil(math.Log(2/delta) / (2 * eps * eps)))
	if n >= 0 && m > n {
		m = n
	}
	return m, nil
}

// SerflingSize returns the sample size from Equation 7,
// ⌈1 / (2ε²/ln(2/δ) + 1/n)⌉: the finite-population bound, always at
// most HoeffdingSize and converging to it as n → ∞.
func SerflingSize(n int, eps, delta float64) (int, error) {
	if err := checkParams(eps, delta); err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("sampling: population size must be positive, got %d", n)
	}
	denom := 2*eps*eps/math.Log(2/delta) + 1/float64(n)
	m := int(math.Ceil(1 / denom))
	if m > n {
		m = n
	}
	return m, nil
}

func checkParams(eps, delta float64) error {
	if eps <= 0 || eps >= 1 {
		return fmt.Errorf("sampling: error tolerance eps %v outside (0,1)", eps)
	}
	if delta <= 0 || delta >= 1 {
		return fmt.Errorf("sampling: confidence delta %v outside (0,1)", delta)
	}
	return nil
}

// Bound selects which concentration inequality sizes the sample.
type Bound int

// Available sample-size bounds.
const (
	// BoundSerfling is the finite-population bound of Equation 7 (the
	// default used by Algorithm 2).
	BoundSerfling Bound = iota
	// BoundHoeffding is the infinite-population bound of Equation 6.
	BoundHoeffding
)

// String implements fmt.Stringer.
func (b Bound) String() string {
	switch b {
	case BoundSerfling:
		return "serfling"
	case BoundHoeffding:
		return "hoeffding"
	default:
		return fmt.Sprintf("Bound(%d)", int(b))
	}
}

// Config parameterizes SaSS. The sos parameters and perf knobs (K,
// Theta, Metric, ...) live in the embedded
// engine.Config and are forwarded wholesale to the greedy run on the
// sample; the fields declared here are sampling-specific.
type Config struct {
	engine.Config

	// Eps is the error tolerance ε and Delta the confidence error δ of
	// Theorem 6.3.
	Eps   float64
	Delta float64
	// Bound selects the sample-size inequality; the zero value is the
	// (tighter) Serfling bound.
	Bound Bound
}

// Result reports a SaSS run.
type Result struct {
	// Selected holds positions into the original object slice.
	Selected []int
	// SampleSize is |O'|, the number of objects greedy actually saw.
	SampleSize int
	// SampleScore is the representative score measured on the sample.
	SampleScore float64
	// Evals is the number of marginal evaluations inside greedy.
	Evals int
}

// Run is Algorithm 2 (SaSS): run the greedy selection through
// core.SelectRegion on the sample, staged in ascending position order
// (so once m reaches len(objs) it is the exact run, bit for bit), and
// return positions into objs. ctx cancels the greedy run cooperatively
// (see core.Selector.Run); a nil ctx never cancels.
func Run(ctx context.Context, objs []geodata.Object, cfg Config) (*Result, error) {
	n := len(objs)
	if n == 0 {
		return &Result{}, nil
	}
	var m int
	var err error
	switch cfg.Bound {
	case BoundHoeffding:
		m, err = HoeffdingSize(n, cfg.Eps, cfg.Delta)
	default:
		m, err = SerflingSize(n, cfg.Eps, cfg.Delta)
	}
	if err != nil {
		return nil, err
	}
	col := &geodata.Collection{Objects: objs}
	res, err := core.SelectRegion(ctx, cfg.Config, col, sample(objs, m), cfg.K, cfg.Theta, nil, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Result{
		Selected:    res.Positions,
		SampleSize:  m,
		SampleScore: res.Score,
		Evals:       res.Evals,
	}, nil
}

// seed salts every key. It is a constant: a sample is a function of the
// objects, never of a run.
const seed = 0x5a55_9e37_79b9_7f4a

// key hashes o's ID and location bits, each through its own odd
// multiplier, with the seed and the splitmix64 finalizer. The location
// is in the key because Object.ID is the application's and may repeat:
// keyed on it alone, objects sharing an ID would be sampled together.
func key(o *geodata.Object) uint64 {
	z := seed ^ uint64(o.ID)*0x9e37_79b9_7f4a_7c15 ^
		math.Float64bits(o.Loc.X)*0xc2b2_ae3d_27d4_eb4f ^ math.Float64bits(o.Loc.Y)*0x1656_67b1_9e37_79f9
	z = (z ^ z>>30) * 0xbf58_476d_1ce4_e5b9
	z = (z ^ z>>27) * 0x94d0_49bb_1331_11eb
	return z ^ z>>31
}

// sample returns, ascending, the indices of the min(m, n) objects
// first in (key, index) order, sorting only the keys that pass a cut.
// Keys are uniform, so one pass keeps, in index order, only the objects whose
// key falls below a cut 4√m + 16 above the expected m-th smallest; a
// pass that keeps fewer than m, rare unless objects repeat, reruns with
// the cut's share of the key space doubled. The kept keys, sorted, give
// the m-th smallest, t: the sample is every kept object below t and, in
// index order, as many at t as it still needs.
func sample(objs []geodata.Object, m int) []int {
	m = min(max(m, 0), len(objs))
	if m == 0 {
		return nil
	}
	var keys []uint64
	var kept []int
	for f := (float64(m) + 4*math.Sqrt(float64(m)) + 16) / float64(len(objs)); len(kept) < m; f *= 2 {
		cut := uint64(math.MaxUint64)
		if f < 0.5 {
			cut = uint64(f * (1 << 64))
		}
		keys, kept = keys[:0], kept[:0]
		for i := range objs {
			if k := key(&objs[i]); k <= cut {
				keys, kept = append(keys, k), append(kept, i)
			}
		}
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	t := sorted[m-1]
	ties := m - slices.Index(sorted, t)
	out := kept[:0]
	for j, k := range keys {
		if k < t || k == t && ties > 0 {
			if k == t {
				ties--
			}
			out = append(out, kept[j])
		}
	}
	return out
}
