// Package sim defines the similarity metric abstraction of the paper's
// Section 3.1: Sim(oi, oj) is "a general function" computed from object
// attributes and normalized into [0, 1], left pluggable so one solution
// covers tweets, POIs, photos and other data types. The selection
// algorithms depend only on the Metric interface; this package provides
// the metrics used in the paper's experiments (cosine over keyword
// vectors, Euclidean proximity for the user study) plus a weighted
// hybrid of the two.
package sim

import (
	"fmt"

	"geosel/internal/geodata"
)

// Metric computes the similarity of two objects in [0, 1]. A Metric must
// be symmetric and return 1 for an object compared with itself (an
// object always represents itself perfectly; cf. Section 3.2).
type Metric interface {
	Sim(a, b *geodata.Object) float64
}

// Func adapts an ordinary function to the Metric interface.
type Func func(a, b *geodata.Object) float64

// Sim implements Metric.
func (f Func) Sim(a, b *geodata.Object) float64 { return f(a, b) }

// Cosine measures similarity as the cosine of the objects' term vectors
// — the metric used for the Twitter and POI datasets in Section 7.1.
// The vectors are stored unit-length, so the cosine is their dot
// product clamped to [0, 1]. Identity is special-cased to keep the
// self-similarity axiom: an object scores exactly 1 with itself, while
// two distinct objects of identical text score within float32 rounding
// of 1 (at least 1 − 2⁻²⁰), and two textless objects score 0.
type Cosine struct{}

// Sim implements Metric.
func (Cosine) Sim(a, b *geodata.Object) float64 {
	if a == b {
		return 1
	}
	return a.Vec.Cosine(b.Vec)
}

// EuclideanProximity maps spatial distance to similarity as
// max(0, 1 - dist/MaxDist) — the metric of the paper's user study
// (Section 7.2), under which the objective reduces to the Weighted Mean
// of Shortest Distances criterion. MaxDist must be positive; it is the
// distance at which similarity bottoms out at 0 (typically the diagonal
// of the query region).
type EuclideanProximity struct {
	MaxDist float64
}

// Sim implements Metric.
func (m EuclideanProximity) Sim(a, b *geodata.Object) float64 {
	if m.MaxDist <= 0 {
		return 0
	}
	s := 1 - a.Loc.Dist(b.Loc)/m.MaxDist
	if s < 0 {
		return 0
	}
	return s
}

// Hybrid mixes a textual and a spatial metric with weight Alpha on the
// textual component: Alpha*Text + (1-Alpha)*Spatial. This realizes the
// paper's motivating example of combining the distance of two POIs with
// their semantic similarity.
type Hybrid struct {
	Alpha   float64
	Text    Metric
	Spatial Metric
}

// NewHybrid returns a Hybrid of Cosine and EuclideanProximity with the
// given mixing weight and spatial scale. It returns an error when alpha
// is outside [0, 1] or maxDist is not positive.
func NewHybrid(alpha, maxDist float64) (Hybrid, error) {
	if alpha < 0 || alpha > 1 {
		return Hybrid{}, fmt.Errorf("sim: alpha %v outside [0,1]", alpha)
	}
	if maxDist <= 0 {
		return Hybrid{}, fmt.Errorf("sim: maxDist %v must be positive", maxDist)
	}
	return Hybrid{Alpha: alpha, Text: Cosine{}, Spatial: EuclideanProximity{MaxDist: maxDist}}, nil
}

// Sim implements Metric.
func (m Hybrid) Sim(a, b *geodata.Object) float64 {
	return m.Alpha*m.Text.Sim(a, b) + (1-m.Alpha)*m.Spatial.Sim(a, b)
}

// Distance converts a similarity into a dissimilarity 1-Sim(a,b), which
// is what the MaxMin/MaxSum diversity baselines maximize.
func Distance(m Metric, a, b *geodata.Object) float64 { return 1 - m.Sim(a, b) }
