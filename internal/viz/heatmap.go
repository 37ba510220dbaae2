package viz

import (
	"strings"

	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// DensityGrid counts the objects of each cell of a w×h grid over
// region — the input to the ASCII heatmap and a quick way to see
// the spatial skew the selection algorithms operate under. Cells are
// row-major with row 0 at the north (top) edge, matching the ASCII
// renderer.
func DensityGrid(objs []geodata.Object, region geo.Rect, w, h int) [][]int {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	grid := make([][]int, h)
	for i := range grid {
		grid[i] = make([]int, w)
	}
	if region.Width() <= 0 || region.Height() <= 0 {
		return grid
	}
	for i := range objs {
		p := objs[i].Loc
		if !region.Contains(p) {
			continue
		}
		cx := int((p.X - region.Min.X) / region.Width() * float64(w))
		cy := int((p.Y - region.Min.Y) / region.Height() * float64(h))
		if cx >= w {
			cx = w - 1
		}
		if cy >= h {
			cy = h - 1
		}
		grid[h-1-cy][cx]++
	}
	return grid
}

// heatRamp maps density quantiles to characters, light to dark.
var heatRamp = []byte(" .:-=+*#%@")

// ASCIIHeatmap renders the density of objs over region as a character
// heatmap: darker characters mark denser cells (log-scaled against the
// maximum cell count).
func ASCIIHeatmap(objs []geodata.Object, region geo.Rect, w, h int) string {
	grid := DensityGrid(objs, region, w, h)
	maxCount := 0
	for _, row := range grid {
		for _, c := range row {
			if c > maxCount {
				maxCount = c
			}
		}
	}
	var b strings.Builder
	b.Grow((w + 1) * h)
	for _, row := range grid {
		for _, c := range row {
			b.WriteByte(heatChar(c, maxCount))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// heatChar maps a count to a ramp character with log scaling.
func heatChar(count, maxCount int) byte {
	if count == 0 || maxCount == 0 {
		return heatRamp[0]
	}
	// log2-ish bucketing: 1 → lowest visible, maxCount → darkest.
	level := 1
	for c := count; c > 1 && level < len(heatRamp)-1; c >>= 1 {
		level++
	}
	// Normalize against the max so sparse maps still span the ramp.
	maxLevel := 1
	for c := maxCount; c > 1; c >>= 1 {
		maxLevel++
	}
	idx := 1 + (level-1)*(len(heatRamp)-2)/maxLevelClamp(maxLevel)
	if idx >= len(heatRamp) {
		idx = len(heatRamp) - 1
	}
	return heatRamp[idx]
}

func maxLevelClamp(l int) int {
	if l < 1 {
		return 1
	}
	return l
}
