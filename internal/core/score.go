// Package core implements the paper's primary contribution: the Spatial
// Object Selection (sos) problem (Definition 3.1) and its 1/8-
// approximation greedy algorithm with the "lazy forward" strategy
// (Algorithm 1, Section 4). The interactive variant builds on the same
// selector through the Candidates/Forced fields (Definition 3.6), and the
// prefetching strategy of Section 5 plugs in through InitialGains.
package core

import (
	"geosel/internal/engine"
	"geosel/internal/geodata"
	"geosel/internal/sim"
	"geosel/internal/textsim"
)

// Agg aliases engine.Agg.
//
// Deprecated: every selection aggregates by max; nothing reads an Agg.
type Agg = engine.Agg

// AggMax aliases engine.AggMax.
//
// Deprecated: every selection aggregates by max; nothing reads an Agg.
const AggMax = engine.AggMax

// Score returns the representative score of selection sel over objs
// (Equation 2): the weighted mean over all objects of Sim(o, S), by the
// evaluator's index-order reductions. The last parameter is ignored.
//
// Score is deliberately context-free: it is the ground-truth check the
// rest of the system is measured against, it performs one bounded
// reduction (no open-ended iteration to cancel), and threading a
// context through its ~25 call sites would buy one row of latency at
// most. Wrap it in a goroutine if a caller ever needs to abandon it.
func Score(objs []geodata.Object, sel []int, m sim.Metric, _ Agg) float64 {
	if len(objs) == 0 {
		return 0
	}
	e := newEvaluator(nil, objs, m)
	best := make([]float64, len(objs))
	for _, s := range sel {
		e.absorb(best, s)
	}
	return e.score(best)
}

// SatisfiesVisibility reports whether every pair of selected objects is
// at distance >= theta (the visibility constraint of Definition 3.1).
func SatisfiesVisibility(objs []geodata.Object, sel []int, theta float64) bool {
	for i := 0; i < len(sel); i++ {
		for j := i + 1; j < len(sel); j++ {
			if objs[sel[i]].Loc.Dist(objs[sel[j]].Loc) < theta {
				return false
			}
		}
	}
	return true
}

// Representatives maps every object to the selected object that
// represents it best (the argmax of Equation 1) — the index used by the
// paper's exploration feature, where clicking a displayed object
// highlights the hidden objects it stands for (Figure 1(c)). The result has one entry
// per object in objs; objects in sel map to themselves when the metric
// obeys the self-similarity axiom. With an empty selection every object
// maps to -1.
//
// Like Score, Representatives is deliberately context-free: a bounded
// ground-truth reduction whose call sites are overwhelmingly tests and
// experiments.
func Representatives(objs []geodata.Object, sel []int, m sim.Metric) []int {
	rep := make([]int, len(objs))
	rows := sim.NewRows(m, objs)
	row, best := make([]float64, len(objs)), make([]float64, len(objs))
	for i := range rep {
		rep[i], best[i] = -1, -1
	}
	// Ties go to the earliest member of sel: later ones must be strictly
	// better.
	for _, s := range sel {
		rows.Row(row, s, nil)
		for i, v := range row {
			if v = textsim.Clamp01(v); v > best[i] {
				best[i], rep[i] = v, s
			}
		}
	}
	return rep
}
