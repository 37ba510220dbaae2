package sim

import (
	"math"
	"testing"

	"geosel/internal/geo"
	"geosel/internal/geodata"
)

func TestSupportRadiusEuclidean(t *testing.T) {
	r, exact, ok := SupportRadius(EuclideanProximity{MaxDist: 0.25}, 0)
	if !ok || !exact || r != 0.25 {
		t.Fatalf("euclidean eps=0: r=%v exact=%v ok=%v", r, exact, ok)
	}
	// The radius is exact at any eps: Euclidean never needs to truncate.
	r, exact, ok = SupportRadius(EuclideanProximity{MaxDist: 0.25}, 0.1)
	if !ok || !exact || r != 0.25 {
		t.Fatalf("euclidean eps=0.1: r=%v exact=%v ok=%v", r, exact, ok)
	}
	// Degenerate MaxDist: identically-zero metric, no usable support.
	if _, _, ok := SupportRadius(EuclideanProximity{MaxDist: 0}, 0); ok {
		t.Fatal("degenerate euclidean certified a radius")
	}
}

func TestSupportRadiusGaussian(t *testing.T) {
	m := GaussianProximity{Sigma: 0.05}
	// No exact radius exists: the Gaussian never reaches zero.
	if _, _, ok := SupportRadius(m, 0); ok {
		t.Fatal("gaussian certified an exact radius")
	}
	eps := 1e-3
	r, exact, ok := SupportRadius(m, eps)
	if !ok || exact {
		t.Fatalf("gaussian eps-radius: r=%v exact=%v ok=%v", r, exact, ok)
	}
	want := 0.05 * math.Sqrt(math.Log(1/eps))
	if math.Abs(r-want) > 1e-12 {
		t.Fatalf("gaussian radius %v, want %v", r, want)
	}
	// The radius certifies what it claims: Sim just beyond r is < eps,
	// and just inside it is >= eps.
	a := &geodata.Object{Loc: geo.Pt(0, 0)}
	at := func(d float64) float64 { return m.Sim(a, &geodata.Object{Loc: geo.Pt(d, 0)}) }
	if v := at(r * 1.0001); v >= eps {
		t.Fatalf("Sim beyond radius = %v, want < %v", v, eps)
	}
	if v := at(r * 0.9999); v < eps {
		t.Fatalf("Sim inside radius = %v, want >= %v", v, eps)
	}
	// Degenerate sigma reports radius 0 which resolves as unusable.
	if _, _, ok := SupportRadius(GaussianProximity{}, eps); ok {
		t.Fatal("degenerate gaussian certified a radius")
	}
}

func TestSupportRadiusHybridAndFallbacks(t *testing.T) {
	// Cosine and custom funcs are unbounded.
	if _, _, ok := SupportRadius(Cosine{}, 0.5); ok {
		t.Fatal("cosine certified a radius")
	}
	if _, _, ok := SupportRadius(Func(func(a, b *geodata.Object) float64 { return 1 }), 0.5); ok {
		t.Fatal("custom func certified a radius")
	}
	// A weighted text part makes the hybrid unbounded.
	h, err := NewHybrid(0.3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := SupportRadius(h, 0); ok {
		t.Fatal("hybrid with weighted cosine certified a radius")
	}
	// Alpha = 0 drops the text part: the spatial radius survives, exact.
	h.Alpha = 0
	r, exact, ok := SupportRadius(h, 0)
	if !ok || !exact || r != 0.2 {
		t.Fatalf("spatial-only hybrid: r=%v exact=%v ok=%v", r, exact, ok)
	}
	// Two bounded parts combine to the larger radius; exactness is the
	// conjunction.
	g := Hybrid{Alpha: 0.5, Text: GaussianProximity{Sigma: 0.05}, Spatial: EuclideanProximity{MaxDist: 0.1}}
	r, exact, ok = SupportRadius(g, 1e-3)
	if !ok || exact {
		t.Fatalf("two-part hybrid: r=%v exact=%v ok=%v", r, exact, ok)
	}
	if want := 0.05 * math.Sqrt(math.Log(1e3)); math.Abs(r-want) > 1e-12 && r != 0.1 {
		t.Fatalf("two-part hybrid radius %v", r)
	}
}

func TestPrecomputedForwardsSupportRadius(t *testing.T) {
	objs := []geodata.Object{{Loc: geo.Pt(0, 0)}, {Loc: geo.Pt(1, 1)}}
	p, err := NewPrecomputed(objs, EuclideanProximity{MaxDist: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r, exact, ok := SupportRadius(p, 0)
	if !ok || !exact || r != 0.5 {
		t.Fatalf("precomputed radius: r=%v exact=%v ok=%v", r, exact, ok)
	}
	if _, _, ok := SupportRadius(mustPrecomputed(t, objs, Cosine{}), 0); ok {
		t.Fatal("precomputed over cosine certified a radius")
	}
}

func mustPrecomputed(t *testing.T, objs []geodata.Object, base Metric) *Precomputed {
	t.Helper()
	p, err := NewPrecomputed(objs, base)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
