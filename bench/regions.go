package main

import (
	"fmt"
	"math"
	"math/rand"

	"geosel/internal/dataset"
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/tilecache"
)

// plan is everything a script generator reads: the dataset, the
// harness's own index over it, and two generators. places draws where
// clients look — region centres, viewports, the steps of a walk — and
// belongs to the fixture, like the dataset: it starts from dataSeed on
// every run. rng starts from -seed and draws the rest: the order
// requests are sent in and the client that sends them, which tile of a
// viewport is fetched, and every write batch. The split is what lets
// ten seeds agree within the bounds: with places drawn from -seed, ten
// seeds spread by 10–16 % on mixed_live and 6 % on nav_session and
// select_cold from the choice of places alone (README, "What -seed
// decides").
type plan struct {
	seed   int64
	shape  shape
	col    *geodata.Collection
	store  *geodata.Store
	places *rand.Rand
	rng    *rand.Rand
}

// newPlan generates the dataset and indexes it. Each workload gets its
// own plan so its draws do not depend on which other workloads ran
// before it.
func newPlan(seed int64, sh shape) (*plan, error) {
	col, err := dataset.Generate(dataset.POISpec(sh.n, dataSeed))
	if err != nil {
		return nil, err
	}
	store, err := geodata.NewStore(col)
	if err != nil {
		return nil, err
	}
	return &plan{
		seed: seed, shape: sh, col: col, store: store,
		places: rand.New(rand.NewSource(dataSeed)), rng: rand.New(rand.NewSource(seed)),
	}, nil
}

var unitSquare = geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)}

// logGrid returns n targets spread log-uniformly over [lo, hi] on a
// fixed grid: the i-th of n strata's midpoint.
func logGrid(lo, hi, n int) []int {
	out := make([]int, n)
	ratio := float64(hi) / float64(lo)
	for i := range out {
		out[i] = int(math.Round(float64(lo) * math.Pow(ratio, (float64(i)+0.5)/float64(n))))
	}
	return out
}

// maxRegionTries bounds how many centres a count-targeted search draws
// before giving up; a dataset that cannot place a region after this
// many tries is reported, not looped on.
const maxRegionTries = 2000

// regionWithCount draws random object-centred squares and bisects the
// side of each until it holds exactly target objects, within one object
// or 1 %, and lies inside the unit square. Selection cost grows with
// the square of the object count and hardly at all with the side, so
// scripts target counts.
func (p *plan) regionWithCount(target int) (geo.Rect, error) {
	tol := target / 100
	if tol < 1 {
		tol = 1
	}
	for try := 0; try < maxRegionTries; try++ {
		c := p.col.Objects[p.places.Intn(p.col.Len())].Loc
		lo, hi := 0.0, 0.25
		if p.store.CountRegion(geo.RectAround(c, hi)) < target {
			continue
		}
		for i := 0; i < 48; i++ {
			mid := (lo + hi) / 2
			if p.store.CountRegion(geo.RectAround(c, mid)) < target {
				lo = mid
			} else {
				hi = mid
			}
		}
		r := geo.RectAround(c, hi)
		if !unitSquare.ContainsRect(r) {
			continue
		}
		if d := p.store.CountRegion(r) - target; d > tol || d < -tol {
			continue
		}
		return r, nil
	}
	return geo.Rect{}, fmt.Errorf("no region with %d objects after %d tries", target, maxRegionTries)
}

// tileZoom is the rule of tilecache/tile.go: the deepest zoom whose
// tiles are still at least half the viewport side.
func tileZoom(side float64) int32 {
	return int32(math.Floor(1 - math.Log2(side)))
}

// coveringTiles lists the tiles a viewport inside the unit square is
// stitched from.
func coveringTiles(r geo.Rect) []tilecache.Tile {
	z := tileZoom(r.Width())
	s := tilecache.Side(z)
	x0, x1 := int32(math.Floor(r.Min.X/s)), int32(math.Floor(r.Max.X/s))
	y0, y1 := int32(math.Floor(r.Min.Y/s)), int32(math.Floor(r.Max.Y/s))
	var out []tilecache.Tile
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			out = append(out, tilecache.Tile{Z: z, X: x, Y: y})
		}
	}
	return out
}

// tilesAdmitted reports whether every covering tile of r — the unit of
// selection work on a tile-cache path — holds between lo and hi
// objects.
func (p *plan) tilesAdmitted(r geo.Rect, lo, hi int) bool {
	for _, t := range coveringTiles(r) {
		if n := p.store.CountRegion(t.Rect()); n < lo || n > hi {
			return false
		}
	}
	return true
}

// citySide is the side of the window the tile-cache workloads stay in.
const citySide = 0.25

// cityZoom is the zoom whose tiles tile the window 8 × 8; the window is
// aligned to it.
const cityZoom = 5

// cityWindow returns the 0.25 × 0.25 window, aligned to the zoom-5 tile
// grid, that holds the most zoom-5 tiles with an admitted object count;
// among equals, the one with the most objects. It is a function of the
// dataset alone.
func (p *plan) cityWindow(lo, hi int) geo.Rect {
	const n = 1 << cityZoom
	span := int(citySide * n)
	var ok, cnt [n][n]int
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			c := p.store.CountRegion(tilecache.Tile{Z: cityZoom, X: int32(x), Y: int32(y)}.Rect())
			cnt[y][x] = c
			if c >= lo && c <= hi {
				ok[y][x] = 1
			}
		}
	}
	bestX, bestY, bestOK, bestCnt := 0, 0, -1, -1
	for y0 := 0; y0+span <= n; y0++ {
		for x0 := 0; x0+span <= n; x0++ {
			sumOK, sumCnt := 0, 0
			for y := y0; y < y0+span; y++ {
				for x := x0; x < x0+span; x++ {
					sumOK += ok[y][x]
					sumCnt += cnt[y][x]
				}
			}
			if sumOK > bestOK || (sumOK == bestOK && sumCnt > bestCnt) {
				bestX, bestY, bestOK, bestCnt = x0, y0, sumOK, sumCnt
			}
		}
	}
	s := tilecache.Side(cityZoom)
	at := geo.Pt(float64(bestX)*s, float64(bestY)*s)
	return geo.Rect{Min: at, Max: geo.Pt(at.X+citySide, at.Y+citySide)}
}

// viewportSides are the viewport side lengths the tile-cache workloads
// draw from — discrete, as a map client's zoom steps are, which keeps
// the number of θ-bands (and so tile keys) per tile small. The first
// two stitch zoom-6 tiles, the last three zoom-5.
var viewportSides = []float64{0.022, 0.028, 0.034, 0.044, 0.058}

// maxViewportTries bounds the draws of one admitted viewport.
const maxViewportTries = 20000

// cityViewport draws a viewport of the given side inside win whose
// covering tiles are all admitted and whose own object count is at
// least lo and at most regionHi.
func (p *plan) cityViewport(win geo.Rect, side float64) (geo.Rect, error) {
	sh := p.shape
	for try := 0; try < maxViewportTries; try++ {
		x := win.Min.X + p.places.Float64()*(win.Width()-side)
		y := win.Min.Y + p.places.Float64()*(win.Height()-side)
		r := geo.Rect{Min: geo.Pt(x, y), Max: geo.Pt(x+side, y+side)}
		if !p.tilesAdmitted(r, sh.tileLo, sh.tileHi) {
			continue
		}
		if n := p.store.CountRegion(r); n < sh.tileLo || n > sh.regionHi {
			continue
		}
		return r, nil
	}
	return geo.Rect{}, fmt.Errorf("no admitted viewport of side %v in %v after %d tries", side, win, maxViewportTries)
}
