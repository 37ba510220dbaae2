package sim

import (
	"math"

	"geosel/internal/geodata"
	"geosel/internal/textsim"
)

// RowBlock is the largest number of similarities one Fill or Gather
// call may write. It equals the evaluation chunk of internal/core, so a
// caller's row buffer is a fixed-size stack array.
const RowBlock = 256

type rowsKind uint8

const (
	// rowsGeneric calls m.Sim per pair: custom metrics, Precomputed,
	// and built-ins with degenerate parameters (whose extra per-pair
	// branch is not worth a loop of its own).
	rowsGeneric rowsKind = iota
	rowsEuclid
	rowsGauss
	rowsCosine
	rowsHybrid
)

// Rows evaluates a metric the one way the selection algorithms consume
// it: one object c against a run of other objects. It is compiled once
// per (metric, object slice) and writes Sim(&objs[i], &objs[c]) into a
// caller-owned buffer — bitwise the value m.Sim returns — reading flat
// columns for the built-in metrics: x/y for the proximity metrics, one
// packed CSR term arena for Cosine, two nested Rows for Hybrid.
//
// Rows is deliberately one concrete struct with a kind switch, called
// statically: behind an interface or a func-valued field the caller's
// stack buffer would escape to the heap, one allocation per chunk. The
// switch runs once per call, not once per pair.
//
// A Rows is safe for concurrent use whenever the source metric is; the
// built-in metrics are stateless and always are.
type Rows struct {
	kind rowsKind

	// Generic kind: the metric itself over the source objects.
	m    Metric
	objs []geodata.Object

	// Euclid and Gauss: position columns and MaxDist or Sigma.
	xs, ys []float64
	scale  float64

	// Cosine: the packed term arena.
	vecs textsim.Packed

	// Hybrid: alpha·text + (1−alpha)·spatial.
	alpha         float64
	text, spatial *Rows
}

// NewRows compiles m over objs. Index equality on objs stands in for
// the pointer identity m.Sim sees, which preserves Cosine's
// self-similarity special case.
func NewRows(m Metric, objs []geodata.Object) *Rows {
	switch mt := m.(type) {
	case Cosine:
		vecs := make([]textsim.Vector, len(objs))
		for i := range objs {
			vecs[i] = objs[i].Vec
		}
		return &Rows{kind: rowsCosine, vecs: textsim.Pack(vecs)}
	case EuclideanProximity:
		if mt.MaxDist > 0 {
			return spatialRows(rowsEuclid, objs, mt.MaxDist)
		}
	case GaussianProximity:
		if mt.Sigma > 0 {
			return spatialRows(rowsGauss, objs, mt.Sigma)
		}
	case Hybrid:
		// A hand-built Hybrid with a nil part panics in Sim; compiling
		// it must not, so it stays generic.
		if mt.Text != nil && mt.Spatial != nil {
			return &Rows{kind: rowsHybrid, alpha: mt.Alpha, text: NewRows(mt.Text, objs), spatial: NewRows(mt.Spatial, objs)}
		}
	}
	return &Rows{kind: rowsGeneric, m: m, objs: objs}
}

func spatialRows(kind rowsKind, objs []geodata.Object, scale float64) *Rows {
	r := &Rows{kind: kind, scale: scale, xs: make([]float64, len(objs)), ys: make([]float64, len(objs))}
	for i := range objs {
		r.xs[i] = objs[i].Loc.X
		r.ys[i] = objs[i].Loc.Y
	}
	return r
}

// Fill writes Sim(o_i, o_c) to dst[i-lo] for every i in [lo, hi).
// hi-lo must not exceed RowBlock or len(dst).
//
//geolint:hotpath
func (r *Rows) Fill(dst []float64, lo, hi, c int) {
	dst = dst[:hi-lo]
	switch r.kind {
	case rowsEuclid:
		xc, yc, maxDist := r.xs[c], r.ys[c], r.scale
		xs, ys := r.xs[lo:hi], r.ys[lo:hi]
		for k := range dst {
			dst[k] = euclidSim(xs[k]-xc, ys[k]-yc, maxDist)
		}
	case rowsGauss:
		xc, yc, sigma := r.xs[c], r.ys[c], r.scale
		xs, ys := r.xs[lo:hi], r.ys[lo:hi]
		for k := range dst {
			dst[k] = gaussSim(xs[k]-xc, ys[k]-yc, sigma)
		}
	case rowsCosine:
		cRow, cNorm := r.vecs.Row(c), r.vecs.Norms[c]
		for k := range dst {
			dst[k] = r.cosineSim(lo+k, c, cRow, cNorm)
		}
	case rowsHybrid:
		var buf [RowBlock]float64
		spatial := buf[:len(dst)]
		r.text.Fill(dst, lo, hi, c)
		r.spatial.Fill(spatial, lo, hi, c)
		r.mix(dst, spatial)
	default:
		oc := &r.objs[c]
		for k := range dst {
			dst[k] = r.m.Sim(&r.objs[lo+k], oc)
		}
	}
}

// Gather writes Sim(o_idx[k], o_c) to dst[k] for every k. len(idx)
// must not exceed RowBlock or len(dst).
//
//geolint:hotpath
func (r *Rows) Gather(dst []float64, idx []int32, c int) {
	dst = dst[:len(idx)]
	switch r.kind {
	case rowsEuclid:
		xc, yc, maxDist := r.xs[c], r.ys[c], r.scale
		xs, ys := r.xs, r.ys
		for k, i := range idx {
			dst[k] = euclidSim(xs[i]-xc, ys[i]-yc, maxDist)
		}
	case rowsGauss:
		xc, yc, sigma := r.xs[c], r.ys[c], r.scale
		xs, ys := r.xs, r.ys
		for k, i := range idx {
			dst[k] = gaussSim(xs[i]-xc, ys[i]-yc, sigma)
		}
	case rowsCosine:
		cRow, cNorm := r.vecs.Row(c), r.vecs.Norms[c]
		for k, i := range idx {
			dst[k] = r.cosineSim(int(i), c, cRow, cNorm)
		}
	case rowsHybrid:
		var buf [RowBlock]float64
		spatial := buf[:len(dst)]
		r.text.Gather(dst, idx, c)
		r.spatial.Gather(spatial, idx, c)
		r.mix(dst, spatial)
	default:
		oc := &r.objs[c]
		for k, i := range idx {
			dst[k] = r.m.Sim(&r.objs[i], oc)
		}
	}
}

// RowSums writes to dst[k], for each c = cs[k], an upper bound on the
// weighted row sum Σ_i w[i]·Sim(o_i, o_c) over every compiled object —
// o_c's initial marginal gain, or its Lemma 5.1–5.3 bound when the
// objects are an envelope — in O(Σ nnz) instead of one Fill per c. It
// reports false, with dst unspecified, when the metric has no such
// shortcut; the caller then sums Fill rows as before.
//
// Only Cosine has one: its row sum is linear, ô_c·A with A = Σ_i w_i·ô_i
// and ô = v/‖v‖. Three corrections keep the value above what the
// chunked reductions make of Fill (DESIGN.md §5d). Sim(o_c, o_c) is
// exactly 1 whatever the stored norm makes of v_c·v_c/‖v_c‖², so the
// shortfall is added back (a zero-norm c gets w_c alone). Unclamped
// quotients dominate Fill's [0, 1] clamp only if every dot is
// non-negative, so a negative or NaN term weight, norm or w declines.
// And either summation order is within n + maxnnz + 8 roundings of the
// real sum, so the result is inflated by 1 + 4(n + maxnnz + 8)·2⁻⁵³.
func (r *Rows) RowSums(dst, w []float64, cs []int) bool {
	if r.kind != rowsCosine {
		return false
	}
	p := &r.vecs
	// A lives in an open-addressed table at load ≤ 1/2, so its size
	// follows the region's terms, not the vocabulary's. slot finds a
	// term's entry, claiming an empty one (key 0) on first sight.
	shift := uint(63)
	for 1<<(64-shift) < 2*len(p.Words) {
		shift--
	}
	keys := make([]uint64, 1<<(64-shift))
	acc := make([]float64, len(keys))
	slot := func(word uint64) int {
		key := word>>32 + 1
		h := int(key * 0x9E3779B97F4A7C15 >> shift)
		for keys[h] != key && keys[h] != 0 {
			h = (h + 1) & (len(keys) - 1)
		}
		keys[h] = key
		return h
	}
	maxnnz := 0
	for i, ni := range p.Norms {
		if !(w[i] >= 0 && ni >= 0) {
			return false
		}
		row := p.Row(i)
		maxnnz = max(maxnnz, len(row))
		scale := 0.0
		if ni > 0 {
			scale = w[i] / ni
		}
		for _, word := range row {
			x := float64(textsim.UnpackWeight(word))
			if !(x >= 0) {
				return false
			}
			acc[slot(word)] += scale * x
		}
	}
	inflate := 1 + 4*float64(len(p.Norms)+maxnnz+8)*0x1p-53
	for k, c := range cs {
		b := w[c]
		if nc := p.Norms[c]; nc > 0 {
			var dot, self float64
			for _, word := range p.Row(c) {
				x := float64(textsim.UnpackWeight(word))
				dot += x * acc[slot(word)]
				self += x * x
			}
			b = dot/nc + w[c]*max(0, 1-self/(nc*nc))
		}
		b *= inflate
		if !(b >= 0) {
			return false // NaN out of an overflowed quotient
		}
		dst[k] = b
	}
	return true
}

// euclidSim is EuclideanProximity.Sim for MaxDist > 0. The builtin max
// compiles branch-free, and 1−d/maxDist is never −0.0, so it returns
// the bits of the metric's "if s < 0 { return 0 }".
func euclidSim(dx, dy, maxDist float64) float64 {
	return max(1-math.Sqrt(dx*dx+dy*dy)/maxDist, 0)
}

// gaussSim is GaussianProximity.Sim for Sigma > 0.
func gaussSim(dx, dy, sigma float64) float64 {
	d := math.Sqrt(dx*dx+dy*dy) / sigma
	return math.Exp(-d * d)
}

// cosineSim is Cosine.Sim(o_i, o_c) against c's hoisted packed row and
// norm. The merge-join visits the same (id, weight) pairs in the same
// order as Vector.Dot, and both products commute exactly in IEEE-754.
func (r *Rows) cosineSim(i, c int, cRow []uint64, cNorm float64) float64 {
	if i == c {
		return 1
	}
	ni := r.vecs.Norms[i]
	if ni == 0 || cNorm == 0 {
		return 0
	}
	v := textsim.DotWords(r.vecs.Row(i), cRow) / (ni * cNorm)
	if v > 1 {
		return 1
	}
	if v < 0 {
		return 0
	}
	return v
}

// mix folds the spatial part into dst, which holds the text part.
func (r *Rows) mix(dst, spatial []float64) {
	alpha := r.alpha
	for k, s := range spatial {
		dst[k] = alpha*dst[k] + (1-alpha)*s
	}
}
