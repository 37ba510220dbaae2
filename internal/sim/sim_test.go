package sim

import (
	"math"
	"math/rand"
	"testing"

	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/textsim"
)

func obj(vocab *textsim.Vocabulary, x, y float64, text string) *geodata.Object {
	return &geodata.Object{
		Loc:  geo.Pt(x, y),
		Vec:  textsim.FromText(vocab, text),
		Text: text,
	}
}

func TestCosineMetric(t *testing.T) {
	vocab := textsim.NewVocabulary()
	a := obj(vocab, 0, 0, "coffee shop downtown")
	b := obj(vocab, 1, 1, "coffee shop downtown")
	c := obj(vocab, 0, 0, "museum of art")
	m := Cosine{}
	if got := m.Sim(a, b); got > 1 || got < 1-0x1p-20 {
		t.Errorf("identical text: %v, want within 2⁻²⁰ of 1", got)
	}
	if got := m.Sim(a, c); got != 0 {
		t.Errorf("disjoint text: %v", got)
	}
	if got := m.Sim(a, a); got != 1 {
		t.Errorf("self: %v", got)
	}
	// Textless identity: same object must be 1, different objects 0.
	e1 := obj(vocab, 0, 0, "")
	e2 := obj(vocab, 0, 0, "")
	if got := m.Sim(e1, e1); got != 1 {
		t.Errorf("textless self: %v", got)
	}
	if got := m.Sim(e1, e2); got != 0 {
		t.Errorf("textless pair: %v", got)
	}
}

// Cosine over unit vectors is a clamped dot product: bitwise symmetric,
// in [0, 1], exactly 1 for an object with itself, and within float32
// rounding (2⁻²⁰) of 1 for two distinct objects with identical text.
func TestCosineIsAClampedUnitDot(t *testing.T) {
	vocab := textsim.NewVocabulary()
	words := []string{"cafe", "bar", "park", "gym", "zoo", "pier", "art"}
	rng := rand.New(rand.NewSource(41))
	text := func() string {
		s := ""
		for k := rng.Intn(9); k > 0; k-- {
			s += words[rng.Intn(len(words))] + " "
		}
		return s
	}
	m := Cosine{}
	for i := 0; i < 2000; i++ {
		a, b := obj(vocab, 0, 0, text()), obj(vocab, 0, 0, text())
		ab, ba := m.Sim(a, b), m.Sim(b, a)
		if math.Float64bits(ab) != math.Float64bits(ba) {
			t.Fatalf("%q vs %q: asymmetric %v / %v", a.Text, b.Text, ab, ba)
		}
		if !(ab >= 0 && ab <= 1) {
			t.Fatalf("%q vs %q: %v outside [0, 1]", a.Text, b.Text, ab)
		}
		if m.Sim(a, a) != 1 {
			t.Fatalf("%q: self-similarity %v", a.Text, m.Sim(a, a))
		}
		if len(a.Vec.Words) == 0 {
			continue
		}
		twin := obj(vocab, 1, 1, a.Text)
		if got := m.Sim(a, twin); got < 1-0x1p-20 {
			t.Fatalf("%q: identical text scores %v, below 1 − 2⁻²⁰", a.Text, got)
		}
	}
}

func TestEuclideanProximity(t *testing.T) {
	vocab := textsim.NewVocabulary()
	a := obj(vocab, 0, 0, "")
	b := obj(vocab, 0.3, 0.4, "") // dist 0.5
	m := EuclideanProximity{MaxDist: 1}
	if got := m.Sim(a, b); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("got %v, want 0.5", got)
	}
	if got := m.Sim(a, a); got != 1 {
		t.Errorf("self: %v", got)
	}
	far := obj(vocab, 10, 10, "")
	if got := m.Sim(a, far); got != 0 {
		t.Errorf("beyond MaxDist should clamp to 0, got %v", got)
	}
	bad := EuclideanProximity{MaxDist: 0}
	if got := bad.Sim(a, b); got != 0 {
		t.Errorf("non-positive MaxDist: %v", got)
	}
}

func TestHybrid(t *testing.T) {
	vocab := textsim.NewVocabulary()
	a := obj(vocab, 0, 0, "coffee")
	b := obj(vocab, 0.5, 0, "coffee")
	m, err := NewHybrid(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// text sim 1, spatial sim 0.5 -> 0.75
	if got := m.Sim(a, b); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("got %v, want 0.75", got)
	}
	if _, err := NewHybrid(-0.1, 1); err == nil {
		t.Error("alpha < 0 should fail")
	}
	if _, err := NewHybrid(1.1, 1); err == nil {
		t.Error("alpha > 1 should fail")
	}
	if _, err := NewHybrid(0.5, 0); err == nil {
		t.Error("maxDist 0 should fail")
	}
}

func TestMetricAxioms(t *testing.T) {
	// Symmetry, range, self-similarity across random objects for every
	// shipped metric.
	vocab := textsim.NewVocabulary()
	words := []string{"a", "b", "c", "d", "e"}
	rng := rand.New(rand.NewSource(31))
	var objs []*geodata.Object
	for i := 0; i < 40; i++ {
		text := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		objs = append(objs, obj(vocab, rng.Float64(), rng.Float64(), text))
	}
	hybrid, _ := NewHybrid(0.6, math.Sqrt2)
	metrics := map[string]Metric{
		"cosine":    Cosine{},
		"euclidean": EuclideanProximity{MaxDist: math.Sqrt2},
		"hybrid":    hybrid,
	}
	for name, m := range metrics {
		for i := 0; i < 200; i++ {
			a := objs[rng.Intn(len(objs))]
			b := objs[rng.Intn(len(objs))]
			sab, sba := m.Sim(a, b), m.Sim(b, a)
			if sab != sba {
				t.Fatalf("%s asymmetric: %v vs %v", name, sab, sba)
			}
			if sab < 0 || sab > 1 {
				t.Fatalf("%s out of range: %v", name, sab)
			}
			if self := m.Sim(a, a); math.Abs(self-1) > 1e-9 {
				t.Fatalf("%s self-similarity = %v", name, self)
			}
		}
	}
}

func TestFuncAdapter(t *testing.T) {
	m := Func(func(a, b *geodata.Object) float64 { return 0.42 })
	if got := m.Sim(nil, nil); got != 0.42 {
		t.Errorf("Func adapter = %v", got)
	}
}

func TestDistance(t *testing.T) {
	vocab := textsim.NewVocabulary()
	a := obj(vocab, 0, 0, "x")
	b := obj(vocab, 0, 0, "y")
	if got := Distance(Cosine{}, a, b); got != 1 {
		t.Errorf("Distance disjoint = %v", got)
	}
	if got := Distance(Cosine{}, a, a); got != 0 {
		t.Errorf("Distance self = %v", got)
	}
}
