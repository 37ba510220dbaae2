package dataset

import (
	"fmt"
	"math/rand"

	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/livestore"
)

// ChurnSpec parameterizes a synthetic mutation sequence over a base
// collection: the workload the live store ingests in the churn tests.
type ChurnSpec struct {
	// Mutations is the sequence length.
	Mutations int
	// InsertWeight, UpdateWeight and DeleteWeight set the relative mix
	// of operation kinds; all zero means the default 3:4:3 mix. Deletes
	// and updates target uniformly random live IDs, inserts mint fresh
	// IDs, so with a balanced mix the live count stays near the base
	// size.
	InsertWeight, UpdateWeight, DeleteWeight float64
	// Seed drives all randomness; equal specs over equal collections
	// generate identical sequences.
	Seed int64
}

// GenerateChurn derives a mutation sequence from the base collection.
// Inserts clone a random base object's text and perturb its location
// (new points stay plausible under the base's spatial/textual skew
// without re-running the full generator); updates move a live object by
// a small delta and re-draw its weight; deletes remove a live object.
// The sequence is internally consistent: updates and deletes only ever
// target IDs that are live at that point of it, so applying it to the
// base collection yields Outcome.Missed == 0.
func GenerateChurn(col *geodata.Collection, spec ChurnSpec) ([]livestore.Mutation, error) {
	switch {
	case spec.Mutations < 0:
		return nil, fmt.Errorf("dataset: Mutations = %d must be non-negative", spec.Mutations)
	case spec.InsertWeight < 0 || spec.UpdateWeight < 0 || spec.DeleteWeight < 0:
		return nil, fmt.Errorf("dataset: churn mix weights must be non-negative")
	case col == nil || len(col.Objects) == 0:
		return nil, fmt.Errorf("dataset: churn needs a non-empty base collection")
	}
	iw, uw, dw := spec.InsertWeight, spec.UpdateWeight, spec.DeleteWeight
	if iw == 0 && uw == 0 && dw == 0 {
		iw, uw, dw = 3, 4, 3
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	bounds, _ := col.Bounds()
	// Perturbation scale: a small fraction of the world, so churn stays
	// inside the spatial structure rather than teleporting objects.
	step := 0.01 * (bounds.Width() + bounds.Height())
	if step <= 0 {
		step = 1e-3
	}

	type state struct {
		loc    geo.Point
		weight float64
		text   string
	}
	liveIDs := make([]int, 0, len(col.Objects))
	liveAt := make(map[int]int, len(col.Objects)) // id -> index in liveIDs
	objects := make(map[int]state, len(col.Objects))
	nextID := 0
	for _, o := range col.Objects {
		liveAt[o.ID] = len(liveIDs)
		liveIDs = append(liveIDs, o.ID)
		objects[o.ID] = state{loc: o.Loc, weight: o.Weight, text: o.Text}
		if o.ID >= nextID {
			nextID = o.ID + 1
		}
	}
	dropLive := func(id int) {
		i := liveAt[id]
		last := len(liveIDs) - 1
		liveIDs[i] = liveIDs[last]
		liveAt[liveIDs[i]] = i
		liveIDs = liveIDs[:last]
		delete(liveAt, id)
	}
	clamp := func(v, lo, hi float64) float64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	perturb := func(p geo.Point) geo.Point {
		return geo.Pt(
			clamp(p.X+rng.NormFloat64()*step, bounds.Min.X, bounds.Max.X),
			clamp(p.Y+rng.NormFloat64()*step, bounds.Min.Y, bounds.Max.Y),
		)
	}

	total := iw + uw + dw
	out := make([]livestore.Mutation, 0, spec.Mutations)
	for range spec.Mutations {
		r := rng.Float64() * total
		var m livestore.Mutation
		switch {
		case r < iw || len(liveIDs) == 0:
			tmpl := col.Objects[rng.Intn(len(col.Objects))]
			id := nextID
			nextID++
			st := state{loc: perturb(tmpl.Loc), weight: rng.Float64(), text: tmpl.Text}
			m = livestore.Mutation{Op: livestore.OpInsert, ID: id, Loc: st.loc, Weight: st.weight, Text: st.text}
			liveAt[id] = len(liveIDs)
			liveIDs = append(liveIDs, id)
			objects[id] = st
		case r < iw+uw:
			id := liveIDs[rng.Intn(len(liveIDs))]
			st := objects[id]
			st.loc = perturb(st.loc)
			st.weight = rng.Float64()
			m = livestore.Mutation{Op: livestore.OpUpdate, ID: id, Loc: st.loc, Weight: st.weight, Text: st.text}
			objects[id] = st
		default:
			id := liveIDs[rng.Intn(len(liveIDs))]
			m = livestore.Mutation{Op: livestore.OpDelete, ID: id}
			dropLive(id)
			delete(objects, id)
		}
		out = append(out, m)
	}
	return out, nil
}
