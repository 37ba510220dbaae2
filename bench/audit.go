package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"geosel/internal/core"
	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/sim"
	"geosel/internal/tilecache"
)

// metric is the similarity the server runs with by default; the
// harness's reference selections must use the same one.
var metric = sim.Cosine{}

// member is one selected object as a response reports it.
type member struct {
	id  int
	loc geo.Point
}

// selectionBody is the part of the server's selection JSON validation
// reads.
type selectionBody struct {
	Objects []struct {
		ID int     `json:"id"`
		X  float64 `json:"x"`
		Y  float64 `json:"y"`
	} `json:"objects"`
}

// members extracts the selected objects from a kept response; ok is
// false for a 304, which carries none.
func (k *kept) members() ([]member, bool, error) {
	if k.status == http.StatusNotModified {
		return nil, false, nil
	}
	if k.req.kind == opTile {
		td, err := tilecache.DecodeTile(k.body)
		if err != nil {
			return nil, false, err
		}
		if td.Tile != k.req.tile {
			return nil, false, fmt.Errorf("asked for tile %v, got %v", k.req.tile, td.Tile)
		}
		out := make([]member, len(td.Members))
		for i, m := range td.Members {
			out[i] = member{id: m.ID, loc: m.Loc}
		}
		return out, true, nil
	}
	var sb selectionBody
	if err := json.Unmarshal(k.body, &sb); err != nil {
		return nil, false, err
	}
	out := make([]member, len(sb.Objects))
	for i, o := range sb.Objects {
		out[i] = member{id: o.ID, loc: geo.Pt(o.X, o.Y)}
	}
	return out, true, nil
}

// thetaSlack absorbs the float32 coordinates of the tile wire format
// when separation is checked on a response's own coordinates.
const thetaSlack = 1e-6

// checkShape validates what a response must satisfy whatever the store
// held when it was served: at most k objects, pairwise at least θ
// apart.
func checkShape(k *kept, ms []member) error {
	if len(ms) > selK {
		return fmt.Errorf("%d objects returned, k = %d", len(ms), selK)
	}
	least := k.req.theta * (1 - thetaSlack)
	for i := range ms {
		for j := i + 1; j < len(ms); j++ {
			if d := ms[i].loc.Dist(ms[j].loc); d < least {
				return fmt.Errorf("ids %d and %d are %v apart, θ = %v", ms[i].id, ms[j].id, d, k.req.theta)
			}
		}
	}
	return nil
}

// auditReport accumulates the validation of a run's kept responses.
type auditReport struct {
	checked int
	// bad counts responses that failed validation; failures describes
	// the first few.
	bad      int
	ratios   []float64
	failures []string
}

func (a *auditReport) fail(k *kept, err error) {
	a.bad++
	if len(a.failures) < maxFailureNotes {
		a.failures = append(a.failures, fmt.Sprintf("%s %s: %v", k.req.kind, k.req.path, err))
	}
}

// shape checks responses that were served while the store was changing:
// only the store-independent properties.
func (a *auditReport) shape(ks []kept) {
	for i := range ks {
		k := &ks[i]
		ms, ok, err := k.members()
		if err == nil && ok {
			err = checkShape(k, ms)
		}
		a.checked++
		if err != nil {
			a.fail(k, err)
		}
	}
}

// exact validates responses against a view known to hold exactly what
// the server held when it answered: shape, every id live and inside the
// asked region, and the score of the returned set against the harness's
// own exact greedy selection on the same objects. With identical set,
// the returned ids must equal the reference selection id for id.
func (a *auditReport) exact(ctx context.Context, ks []kept, view geodata.View, identical bool) {
	for i := range ks {
		k := &ks[i]
		a.checked++
		ratio, err := auditOne(ctx, k, view, identical)
		if err != nil {
			a.fail(k, err)
			continue
		}
		if ratio > 0 {
			a.ratios = append(a.ratios, ratio)
		}
	}
}

// auditOne returns the score ratio of one response, 0 when it carries
// no selection (a 304).
func auditOne(ctx context.Context, k *kept, view geodata.View, identical bool) (float64, error) {
	ms, ok, err := k.members()
	if err != nil || !ok {
		return 0, err
	}
	pos := view.Region(k.req.region)
	objs := view.Collection().Subset(pos)
	at := make(map[int]int, len(objs))
	for i := range objs {
		at[objs[i].ID] = i
	}
	sel := make([]int, len(ms))
	for i, m := range ms {
		j, live := at[m.id]
		if !live {
			return 0, fmt.Errorf("id %d is not live inside the asked region", m.id)
		}
		sel[i] = j
		// Check separation on the store's own coordinates, not the
		// response's rounded ones.
		ms[i].loc = objs[j].Loc
	}
	if err := checkShape(k, ms); err != nil {
		return 0, err
	}
	ref := &core.Selector{
		Config:  engine.Config{K: selK, Theta: k.req.theta, Metric: metric},
		Objects: objs,
	}
	res, err := ref.Run(ctx)
	if err != nil {
		return 0, err
	}
	if identical {
		if len(res.Selected) != len(sel) {
			return 0, fmt.Errorf("%d objects returned, exact selection has %d", len(sel), len(res.Selected))
		}
		for i := range sel {
			if sel[i] != res.Selected[i] {
				return 0, fmt.Errorf("pick %d is id %d, exact selection has id %d", i, objs[sel[i]].ID, objs[res.Selected[i]].ID)
			}
		}
	}
	if res.Score == 0 {
		return 1, nil
	}
	return core.Score(objs, sel, metric, engine.AggMax) / res.Score, nil
}
