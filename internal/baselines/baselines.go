// Package baselines implements the comparison methods of the paper's
// evaluation (Section 7): Random, the MaxMin and MaxSum diversity
// heuristics [17], DisC diversity [16], and K-means medoid selection.
// Random respects the visibility constraint (as in the paper's
// implementation); the other four may violate it, exactly as the paper
// notes — they exist to compare representative quality, not feasibility.
package baselines

import (
	"math/rand"

	"geosel/internal/geodata"
	"geosel/internal/sim"
)

// Random repeatedly picks a uniformly random object and keeps it if it
// does not break the visibility constraint against the current result,
// stopping at k objects or when attempts are exhausted (the strategy of
// [48, 49] plus the visibility filter, as described in Section 7.1).
// rng must not be nil.
func Random(objs []geodata.Object, k int, theta float64, rng *rand.Rand) []int {
	n := len(objs)
	if k <= 0 || n == 0 {
		return nil
	}
	perm := rng.Perm(n)
	var sel []int
	for _, c := range perm {
		if len(sel) == k {
			break
		}
		ok := true
		for _, s := range sel {
			if objs[c].Loc.Dist(objs[s].Loc) < theta {
				ok = false
				break
			}
		}
		if ok {
			sel = append(sel, c)
		}
	}
	return sel
}

// MaxMin greedily maximizes f_MIN(S) = min over pairs of (1 - Sim):
// start from the pair with the largest dissimilarity, then repeatedly
// add the object maximizing the minimum dissimilarity to the selected
// set (the classic 2-approximation for the k-dispersion problem, the
// MAXMIN objective of Figure 6(d)).
func MaxMin(objs []geodata.Object, k int, m sim.Metric) []int {
	n := len(objs)
	if k <= 0 || n == 0 {
		return nil
	}
	if k == 1 {
		return []int{0}
	}
	// Seed with the farthest pair.
	bestI, bestJ, bestD := 0, 0, -1.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := sim.Distance(m, &objs[i], &objs[j]); d > bestD {
				bestI, bestJ, bestD = i, j, d
			}
		}
	}
	sel := []int{bestI, bestJ}
	inSel := make([]bool, n)
	inSel[bestI], inSel[bestJ] = true, true
	// minDist[i] = min dissimilarity from i to the selected set.
	minDist := make([]float64, n)
	for i := 0; i < n; i++ {
		d1 := sim.Distance(m, &objs[i], &objs[bestI])
		d2 := sim.Distance(m, &objs[i], &objs[bestJ])
		if d1 < d2 {
			minDist[i] = d1
		} else {
			minDist[i] = d2
		}
	}
	for len(sel) < k && len(sel) < n {
		best, bestVal := -1, -1.0
		for i := 0; i < n; i++ {
			if !inSel[i] && minDist[i] > bestVal {
				best, bestVal = i, minDist[i]
			}
		}
		if best == -1 {
			break
		}
		sel = append(sel, best)
		inSel[best] = true
		for i := 0; i < n; i++ {
			if d := sim.Distance(m, &objs[i], &objs[best]); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	return sel
}

// MaxSum greedily maximizes f_SUM(S) = Σ over pairs of (1 - Sim):
// repeatedly add the object with the largest total dissimilarity to the
// selected set, seeded with the farthest pair (the MAXSUM objective of
// Figure 6(e)).
func MaxSum(objs []geodata.Object, k int, m sim.Metric) []int {
	n := len(objs)
	if k <= 0 || n == 0 {
		return nil
	}
	if k == 1 {
		return []int{0}
	}
	bestI, bestJ, bestD := 0, 0, -1.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := sim.Distance(m, &objs[i], &objs[j]); d > bestD {
				bestI, bestJ, bestD = i, j, d
			}
		}
	}
	sel := []int{bestI, bestJ}
	inSel := make([]bool, n)
	inSel[bestI], inSel[bestJ] = true, true
	sumDist := make([]float64, n)
	for i := 0; i < n; i++ {
		sumDist[i] = sim.Distance(m, &objs[i], &objs[bestI]) +
			sim.Distance(m, &objs[i], &objs[bestJ])
	}
	for len(sel) < k && len(sel) < n {
		best, bestVal := -1, -1.0
		for i := 0; i < n; i++ {
			if !inSel[i] && sumDist[i] > bestVal {
				best, bestVal = i, sumDist[i]
			}
		}
		if best == -1 {
			break
		}
		sel = append(sel, best)
		inSel[best] = true
		for i := 0; i < n; i++ {
			sumDist[i] += sim.Distance(m, &objs[i], &objs[best])
		}
	}
	return sel
}

// DisC computes a covering-diversity selection following Drosou &
// Pitoura [16]: a maximal set S such that every object is within
// radius r (in dissimilarity space) of some member of S, and members
// are mutually farther than r. Objects are scanned in index order,
// which matches the greedy flavor of the original heuristic.
func DisC(objs []geodata.Object, r float64, m sim.Metric) []int {
	n := len(objs)
	if n == 0 {
		return nil
	}
	covered := make([]bool, n)
	var sel []int
	for i := 0; i < n; i++ {
		if covered[i] {
			continue
		}
		sel = append(sel, i)
		for j := 0; j < n; j++ {
			if !covered[j] && sim.Distance(m, &objs[i], &objs[j]) <= r {
				covered[j] = true
			}
		}
	}
	return sel
}

// DisCWithSize tunes the DisC radius by bisection until the output size
// is as close to k as the granularity allows, mirroring the paper's
// experimental setup ("we tune the parameter radius r carefully until
// the size of output is close to k"). It returns the selection and the
// radius used.
func DisCWithSize(objs []geodata.Object, k int, m sim.Metric) ([]int, float64) {
	if len(objs) == 0 || k <= 0 {
		return nil, 0
	}
	lo, hi := 0.0, 1.0 // dissimilarities are in [0, 1]
	bestSel := DisC(objs, hi, m)
	bestDiff := diff(len(bestSel), k)
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		s := DisC(objs, mid, m)
		if d := diff(len(s), k); d < bestDiff {
			bestSel, bestDiff = s, d
		}
		if len(s) == k {
			return s, mid
		}
		if len(s) > k {
			// Too many picks: increase radius to cover more per pick.
			lo = mid
		} else {
			hi = mid
		}
	}
	return bestSel, (lo + hi) / 2
}

func diff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// KMeans clusters object locations with Lloyd's algorithm and returns,
// for each cluster, the object closest to its centroid (Figure 6(g)).
// rng seeds the initial centroids (k-means++ style D² sampling).
func KMeans(objs []geodata.Object, k int, iters int, rng *rand.Rand) []int {
	n := len(objs)
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	// k-means++ initialization.
	centroids := make([]struct{ x, y float64 }, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, struct{ x, y float64 }{objs[first].Loc.X, objs[first].Loc.Y})
	d2 := make([]float64, n)
	for len(centroids) < k {
		var total float64
		for i := 0; i < n; i++ {
			best := 1e308
			for _, c := range centroids {
				dx := objs[i].Loc.X - c.x
				dy := objs[i].Loc.Y - c.y
				if d := dx*dx + dy*dy; d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All remaining points coincide with centroids; pick any.
			centroids = append(centroids, struct{ x, y float64 }{objs[rng.Intn(n)].Loc.X, objs[rng.Intn(n)].Loc.Y})
			continue
		}
		target := rng.Float64() * total
		acc := 0.0
		pick := n - 1
		for i := 0; i < n; i++ {
			acc += d2[i]
			if acc >= target {
				pick = i
				break
			}
		}
		centroids = append(centroids, struct{ x, y float64 }{objs[pick].Loc.X, objs[pick].Loc.Y})
	}

	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		changed := false
		for i := 0; i < n; i++ {
			best, bestD := 0, 1e308
			for c := range centroids {
				dx := objs[i].Loc.X - centroids[c].x
				dy := objs[i].Loc.Y - centroids[c].y
				if d := dx*dx + dy*dy; d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		var sx, sy = make([]float64, k), make([]float64, k)
		cnt := make([]int, k)
		for i := 0; i < n; i++ {
			sx[assign[i]] += objs[i].Loc.X
			sy[assign[i]] += objs[i].Loc.Y
			cnt[assign[i]]++
		}
		for c := 0; c < k; c++ {
			if cnt[c] > 0 {
				centroids[c].x = sx[c] / float64(cnt[c])
				centroids[c].y = sy[c] / float64(cnt[c])
			}
		}
		if !changed && it > 0 {
			break
		}
	}

	// Medoid per cluster.
	medoid := make([]int, k)
	medoidD := make([]float64, k)
	for c := range medoid {
		medoid[c] = -1
	}
	for i := 0; i < n; i++ {
		c := assign[i]
		dx := objs[i].Loc.X - centroids[c].x
		dy := objs[i].Loc.Y - centroids[c].y
		d := dx*dx + dy*dy
		if medoid[c] == -1 || d < medoidD[c] {
			medoid[c], medoidD[c] = i, d
		}
	}
	var sel []int
	for c := 0; c < k; c++ {
		if medoid[c] >= 0 {
			sel = append(sel, medoid[c])
		}
	}
	return sel
}

// Method names used by the experiment harness.
const (
	NameGreedy = "Greedy"
	NameSaSS   = "SaSS"
	NameRandom = "Random"
	NameMaxMin = "MaxMin"
	NameMaxSum = "MaxSum"
	NameDisC   = "DisC"
	NameKMeans = "K-means"
)
