// Package sampling implements the paper's sampling extension (Section
// 6): sample size formulas from the Hoeffding and Serfling concentration
// inequalities and the SaSS algorithm (Algorithm 2), which runs the
// greedy selection on a uniform sample O' of O such that, with
// probability at least 1-δ, the representative score of the result is
// within ε of the score it would get on the full data.
package sampling

import (
	"context"
	"fmt"
	"math"
	"math/rand"

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
	// Rng drives the uniform sample; must not be nil.
	Rng *rand.Rand
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

// Run is Algorithm 2 (SaSS): draw m uniform samples, run the greedy
// selection on the sample, and return positions into the full slice.
// ctx cancels the greedy run cooperatively (see core.Selector.Run); a
// nil ctx never cancels.
func Run(ctx context.Context, objs []geodata.Object, cfg Config) (*Result, error) {
	if cfg.Rng == nil {
		return nil, fmt.Errorf("sampling: Config.Rng must not be nil")
	}
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

	// Draw m distinct positions uniformly.
	positions := cfg.Rng.Perm(n)[:m]
	sample := make([]geodata.Object, m)
	for i, p := range positions {
		sample[i] = objs[p]
	}

	sel := &core.Selector{
		Config:  cfg.Config,
		Objects: sample,
	}
	res, err := sel.Run(ctx)
	if err != nil {
		return nil, err
	}
	out := &Result{
		SampleSize:  m,
		SampleScore: res.Score,
		Evals:       res.Evals,
	}
	for _, s := range res.Selected {
		out.Selected = append(out.Selected, positions[s])
	}
	return out, nil
}
