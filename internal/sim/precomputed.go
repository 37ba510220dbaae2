package sim

import (
	"fmt"

	"geosel/internal/geodata"
)

// Precomputed caches the full pairwise similarity matrix of a fixed
// object slice. The greedy algorithm evaluates Sim hundreds of times
// per object; for small-to-medium regions (up to a few thousand
// objects) paying O(n²) similarity computations once and serving the
// rest from a flat matrix is a sizable constant-factor win, especially
// for expensive base metrics. Objects are identified by their position
// in the slice passed to NewPrecomputed; the Sim method falls back to
// the base metric for objects outside that slice.
type Precomputed struct {
	base Metric
	n    int
	// index maps *Object (by pointer identity into the original slice)
	// to its row.
	index map[*geodata.Object]int
	vals  []float64
}

// NewPrecomputed computes the pairwise matrix of base over objs. The
// objs slice must not be reallocated afterwards (its element addresses
// are the lookup keys).
func NewPrecomputed(objs []geodata.Object, base Metric) (*Precomputed, error) {
	if base == nil {
		return nil, fmt.Errorf("sim: nil base metric")
	}
	n := len(objs)
	p := &Precomputed{
		base:  base,
		n:     n,
		index: make(map[*geodata.Object]int, n),
		vals:  make([]float64, n*n),
	}
	for i := range objs {
		p.index[&objs[i]] = i
	}
	for i := 0; i < n; i++ {
		p.vals[i*n+i] = base.Sim(&objs[i], &objs[i])
		for j := i + 1; j < n; j++ {
			v := base.Sim(&objs[i], &objs[j])
			p.vals[i*n+j] = v
			p.vals[j*n+i] = v
		}
	}
	return p, nil
}

// Sim implements Metric. Lookups are O(1) for objects of the
// precomputed slice; other objects fall back to the base metric.
func (p *Precomputed) Sim(a, b *geodata.Object) float64 {
	i, okA := p.index[a]
	j, okB := p.index[b]
	if okA && okB {
		return p.vals[i*p.n+j]
	}
	return p.base.Sim(a, b)
}
