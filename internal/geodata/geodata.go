// Package geodata defines the geospatial object model shared by every
// layer of the library. A geospatial object follows the paper's triple
// o = ⟨λ, ω, A⟩ (Section 3.1): a location, a normalized weight, and a
// set of attributes — here a text payload with its interned sparse term
// vector, which is what the similarity metrics consume. It also holds
// the one spatial index every region query reads (Grid, grid.go), and
// the static Store over it.
package geodata

import (
	"fmt"

	"geosel/internal/geo"
	"geosel/internal/textsim"
)

// Object is one geospatial record.
type Object struct {
	// ID is the caller-assigned identifier, unique within a Collection.
	ID int
	// Loc is the object's location λ in the normalized world plane.
	Loc geo.Point
	// Weight is the importance/popularity ω, normalized into [0, 1].
	Weight float64
	// Vec is the sparse term vector derived from the object's textual
	// attribute; the zero Vector is valid for objects without text.
	Vec textsim.Vector
	// Text is the raw textual attribute (optional; Vec is what the
	// metrics read, Text is kept for display and round-tripping).
	Text string
}

// Collection is an ordered set of objects plus the vocabulary its term
// vectors were interned against. Algorithms address objects by position
// in Objects; Object.ID is free for the application.
type Collection struct {
	Objects []Object
	Vocab   *textsim.Vocabulary
}

// NewCollection returns an empty collection with a fresh vocabulary.
func NewCollection() *Collection {
	return &Collection{Vocab: textsim.NewVocabulary()}
}

// Len reports the number of objects.
func (c *Collection) Len() int { return len(c.Objects) }

// Add appends an object built from its raw fields, tokenizing text
// against the collection's vocabulary, and returns its index.
func (c *Collection) Add(id int, loc geo.Point, weight float64, text string) int {
	if c.Vocab == nil {
		c.Vocab = textsim.NewVocabulary()
	}
	c.Objects = append(c.Objects, Object{
		ID:     id,
		Loc:    loc,
		Weight: weight,
		Vec:    textsim.FromText(c.Vocab, text),
		Text:   text,
	})
	return len(c.Objects) - 1
}

// Bounds returns the minimum bounding rectangle of all object locations;
// ok is false for an empty collection.
func (c *Collection) Bounds() (geo.Rect, bool) {
	if len(c.Objects) == 0 {
		return geo.Rect{}, false
	}
	r := geo.Rect{Min: c.Objects[0].Loc, Max: c.Objects[0].Loc}
	for _, o := range c.Objects[1:] {
		r = r.Union(geo.Rect{Min: o.Loc, Max: o.Loc})
	}
	return r, true
}

// Validate checks every object against CheckValues, returning a
// descriptive error for the first offending object.
func (c *Collection) Validate() error {
	for i, o := range c.Objects {
		if err := CheckValues(o.Loc, o.Weight); err != nil {
			return fmt.Errorf("geodata: object %d (id %d): %w", i, o.ID, err)
		}
	}
	return nil
}

// CheckValues is the value contract of one object: a weight in [0, 1]
// and both coordinates strictly inside (−1e308, 1e308). The bound lies
// below the largest float64 (≈1.8e308), so it rejects NaN, ±Inf and
// finite coordinates from 1e308 up alike. Every store checks its
// objects with it.
func CheckValues(loc geo.Point, weight float64) error {
	if weight < 0 || weight > 1 || weight != weight {
		return fmt.Errorf("weight %v outside [0,1]", weight)
	}
	if !inBound(loc.X) || !inBound(loc.Y) {
		return fmt.Errorf("location %v outside (-1e308, 1e308)", loc)
	}
	return nil
}

func inBound(x float64) bool { return x < 1e308 && x > -1e308 }

// Subset returns the objects at the given indices as a new slice (the
// Object values are copied; term vectors share backing arrays, which is
// safe because vectors are immutable after construction).
func (c *Collection) Subset(idx []int) []Object {
	out := make([]Object, len(idx))
	for i, j := range idx {
		out[i] = c.Objects[j]
	}
	return out
}

// ApplyTFIDF reweights every object's term vector by smoothed inverse
// document frequency over the collection. It sharpens cosine similarity
// when a few terms dominate the corpus (stop-word-like behaviour); call
// it once, after the collection is fully loaded and before indexing.
func (c *Collection) ApplyTFIDF() {
	if c.Vocab == nil || len(c.Objects) == 0 {
		return
	}
	vecs := make([]textsim.Vector, len(c.Objects))
	for i := range c.Objects {
		vecs[i] = c.Objects[i].Vec
	}
	df := textsim.DocumentFrequencies(vecs, c.Vocab.Len())
	idf := textsim.IDF(df, len(c.Objects))
	for i := range c.Objects {
		c.Objects[i].Vec = c.Objects[i].Vec.Reweight(idf)
	}
}

// IndicesInRegion returns the indices of all objects whose location lies
// in r, by linear scan. Index-accelerated lookups live in the Store type
// (store.go); this helper is the reference implementation and is used on
// small collections and in tests.
func (c *Collection) IndicesInRegion(r geo.Rect) []int {
	var out []int
	for i, o := range c.Objects {
		if r.Contains(o.Loc) {
			out = append(out, i)
		}
	}
	return out
}
