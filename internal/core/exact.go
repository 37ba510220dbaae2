package core

import (
	"fmt"

	"geosel/internal/geodata"
	"geosel/internal/sim"
)

// maxExactObjects bounds the instance size Exact accepts; enumeration is
// exponential and exists to validate the greedy algorithm on small
// instances, not for production use.
const maxExactObjects = 22

// Exact solves the sos problem optimally by enumerating every subset of
// at most k objects that satisfies the visibility constraint, returning
// the best selection and its normalized score. Because the objective is
// monotone (Lemma 4.2), searching subsets of size <= k rather than
// exactly k loses nothing and handles instances where no k-subset is
// feasible. It returns an error when len(objs) exceeds maxExactObjects.
func Exact(objs []geodata.Object, k int, theta float64, m sim.Metric) ([]int, float64, error) {
	n := len(objs)
	if n > maxExactObjects {
		return nil, 0, fmt.Errorf("core: Exact limited to %d objects, got %d", maxExactObjects, n)
	}
	if m == nil {
		return nil, 0, fmt.Errorf("core: Metric must not be nil")
	}
	if k < 0 {
		return nil, 0, fmt.Errorf("core: K = %d must be non-negative", k)
	}

	// Precompute pairwise feasibility.
	ok := make([][]bool, n)
	for i := range ok {
		ok[i] = make([]bool, n)
		for j := range ok[i] {
			ok[i][j] = objs[i].Loc.Dist(objs[j].Loc) >= theta
		}
	}

	var bestSel []int
	bestScore := 0.0
	cur := make([]int, 0, k)

	var recurse func(start int)
	recurse = func(start int) {
		if sc := Score(objs, cur, m, AggMax); sc > bestScore || bestSel == nil {
			bestScore = sc
			bestSel = append([]int(nil), cur...)
		}
		if len(cur) == k {
			return
		}
		for i := start; i < n; i++ {
			feasible := true
			for _, j := range cur {
				if !ok[i][j] {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			cur = append(cur, i)
			recurse(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	recurse(0)
	return bestSel, bestScore, nil
}
