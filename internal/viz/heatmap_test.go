package viz

import (
	"strings"
	"testing"

	"geosel/internal/geo"
	"geosel/internal/geodata"
)

func clusterObjects() []geodata.Object {
	var objs []geodata.Object
	// Dense cluster in the north-east, one stray point south-west.
	for i := 0; i < 50; i++ {
		objs = append(objs, geodata.Object{
			Loc: geo.Pt(0.8+float64(i%5)*0.01, 0.8+float64(i/5)*0.01),
		})
	}
	objs = append(objs, geodata.Object{Loc: geo.Pt(0.1, 0.1)})
	objs = append(objs, geodata.Object{Loc: geo.Pt(5, 5)}) // outside
	return objs
}

func TestDensityGrid(t *testing.T) {
	grid := DensityGrid(clusterObjects(), geo.WorldUnit, 10, 10)
	if len(grid) != 10 || len(grid[0]) != 10 {
		t.Fatalf("grid shape %dx%d", len(grid), len(grid[0]))
	}
	total := 0
	for _, row := range grid {
		for _, c := range row {
			total += c
		}
	}
	if total != 51 {
		t.Errorf("counted %d objects, want 51 (outsider excluded)", total)
	}
	// North-east cluster is at the TOP-right of the grid (row 0-2).
	neTop := grid[0][8] + grid[1][8] + grid[0][9] + grid[1][9] + grid[2][8] + grid[2][9]
	if neTop < 40 {
		t.Errorf("north-east cluster not at grid top: %d", neTop)
	}
	// Stray point at bottom-left.
	if grid[9][1]+grid[8][1]+grid[9][0]+grid[8][0] == 0 {
		t.Error("south-west point missing from grid bottom")
	}
}

func TestDensityGridDegenerate(t *testing.T) {
	grid := DensityGrid(clusterObjects(), geo.Rect{}, 0, -1)
	if len(grid) != 1 || len(grid[0]) != 1 || grid[0][0] != 0 {
		t.Errorf("degenerate grid = %v", grid)
	}
}

func TestASCIIHeatmap(t *testing.T) {
	out := ASCIIHeatmap(clusterObjects(), geo.WorldUnit, 20, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("%d lines", len(lines))
	}
	// The dense cluster must render darker than the stray point.
	darkest := byte(' ')
	for _, ch := range []byte(lines[0] + lines[1]) {
		if rampIndex(ch) > rampIndex(darkest) {
			darkest = ch
		}
	}
	strayRow := lines[8] + lines[9]
	stray := byte(' ')
	for _, ch := range []byte(strayRow) {
		if rampIndex(ch) > rampIndex(stray) {
			stray = ch
		}
	}
	if rampIndex(darkest) <= rampIndex(stray) {
		t.Errorf("cluster char %q not darker than stray %q", darkest, stray)
	}
	// Empty map renders all blanks without panicking.
	empty := ASCIIHeatmap(nil, geo.WorldUnit, 5, 5)
	if strings.Trim(empty, " \n") != "" {
		t.Error("empty heatmap should be blank")
	}
}

func rampIndex(ch byte) int {
	for i, c := range heatRamp {
		if c == ch {
			return i
		}
	}
	return -1
}
