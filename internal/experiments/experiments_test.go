package experiments

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// tinyEnv keeps every exhibit runnable in seconds for the test suite;
// the benchrunner uses DefaultConfig for real measurements.
func tinyEnv() *Env {
	return NewEnv(Config{
		UKSize:  8000,
		USSize:  12000,
		POISize: 5000,
		Queries: 1,
		Seed:    3,
	})
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("longer", "3")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== x: demo ==") {
		t.Error("header missing")
	}
	if !strings.Contains(out, "note: a note") {
		t.Error("note missing")
	}
	var csv bytes.Buffer
	tab.CSV(&csv)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,bb" || lines[1] != "1,2" {
		t.Errorf("CSV = %q", csv.String())
	}
}

func TestExhibitRegistry(t *testing.T) {
	ids := ExhibitIDs()
	if len(ids) != 17 {
		t.Fatalf("%d exhibits, want 17 (tables 3-4 + figures 7-14, 18-23 + ablations)", len(ids))
	}
	for _, id := range ids {
		if _, ok := Describe(id); !ok {
			t.Errorf("no description for %s", id)
		}
	}
	if _, ok := Describe("nope"); ok {
		t.Error("unknown id described")
	}
	if _, err := tinyEnv().Run("nope"); err == nil {
		t.Error("unknown exhibit should fail")
	}
}

func TestEnvStoresCached(t *testing.T) {
	e := tinyEnv()
	a, err := e.UK()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.UK()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("UK store rebuilt instead of cached")
	}
	if _, err := e.storeByName("POI"); err != nil {
		t.Error(err)
	}
	if _, err := e.storeByName("bogus"); err == nil {
		t.Error("bogus store name should fail")
	}
}

func TestUserStudySOSTable(t *testing.T) {
	tab, err := tinyEnv().Run("table3")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Greedy (column 1) must be within a whisker of the best RP score
	// (K-means medoids are near-optimal on smooth synthetic Gaussians)
	// and strictly beat the diversity baselines and Random.
	greedy := parse(t, tab.Rows[0][1])
	for i := 2; i < len(tab.Rows[0]); i++ {
		v := parse(t, tab.Rows[0][i])
		if v > greedy*1.01 {
			t.Errorf("method %s RP %s far above Greedy %v", tab.Columns[i], tab.Rows[0][i], greedy)
		}
		switch tab.Columns[i] {
		case "Random", "MaxMin", "MaxSum", "DisC":
			if v >= greedy {
				t.Errorf("%s RP %v should trail Greedy %v", tab.Columns[i], v, greedy)
			}
		}
	}
	// Simulated votes: greedy lands at the top of the 1-5 scale.
	if v := parse(t, tab.Rows[1][1]); v < 4.5 {
		t.Errorf("greedy vote = %v, want >= 4.5", v)
	}
}

func TestUserStudyISOSTable(t *testing.T) {
	tab, err := tinyEnv().Run("table4")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows, want 2 per op", len(tab.Rows))
	}
	// RP rows are 0, 2, 4; Greedy is column 2.
	for _, ri := range []int{0, 2, 4} {
		greedy := parse(t, tab.Rows[ri][2])
		for c := 3; c < len(tab.Rows[ri]); c++ {
			if parse(t, tab.Rows[ri][c]) > greedy+0.05 {
				t.Errorf("op %s: %s RP %s far above Greedy %v",
					tab.Rows[ri][0], tab.Columns[c], tab.Rows[ri][c], greedy)
			}
		}
	}
}

func TestMethodComparisonTable(t *testing.T) {
	tab, err := tinyEnv().Run("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("%d method rows", len(tab.Rows))
	}
	scores := map[string]float64{}
	for _, row := range tab.Rows {
		scores[row[0]] = parse(t, row[2])
	}
	for m, s := range scores {
		if m == "Greedy" {
			continue
		}
		if s > scores["Greedy"]+1e-9 {
			t.Errorf("%s score %v beats Greedy %v", m, s, scores["Greedy"])
		}
	}
}

func TestSamplingSweepTable(t *testing.T) {
	tab, err := tinyEnv().Run("fig9")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Sampling ratio decreases as eps grows.
	prev := 2.0
	for _, row := range tab.Rows {
		ratio := parse(t, row[3])
		if ratio > prev+1e-9 {
			t.Errorf("sampling ratio grew with eps: %v after %v", ratio, prev)
		}
		prev = ratio
		// At the tiny test scale the sample is a large fraction of the
		// region and selection bias inflates the difference; just guard
		// against nonsense. The paper-shape assertion (< 0.01-ish)
		// belongs to the full-size benchrunner run in EXPERIMENTS.md.
		if diff := parse(t, row[4]); diff > 0.5 {
			t.Errorf("score diff %v implausibly large", diff)
		}
	}
}

func TestPrefetchComparisonTable(t *testing.T) {
	// For each op: Pre response <= Greedy response <= Reselect response
	// is the paper's shape; assert the weaker, robust property that
	// neither seeded mode (Pre, Self) exceeds Reselect. The responses are wall-clock readings
	// of about a millisecond, so one scheduler hiccup can invert a pair
	// (it did in 13 of 80 runs on a 2-vCPU box): a reading only counts
	// as a failure if it repeats.
	const attempts = 5
	var slow []string
	for try := 0; try < attempts; try++ {
		tab, err := tinyEnv().Run("fig13")
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 12 {
			t.Fatalf("%d rows, want 4 modes × 3 ops", len(tab.Rows))
		}
		byOp := map[string]map[string]float64{}
		for _, row := range tab.Rows {
			if byOp[row[0]] == nil {
				byOp[row[0]] = map[string]float64{}
			}
			mode := strings.SplitN(row[1], "-", 2)[0]
			byOp[row[0]][mode] = parse(t, row[2])
		}
		slow = slow[:0]
		for op, modes := range byOp {
			for _, seeded := range []string{"Pre", "Self"} {
				if modes[seeded] > modes["Reselect"]*1.5 {
					slow = append(slow, fmt.Sprintf("op %s: %s %v much slower than Reselect %v", op, seeded, modes[seeded], modes["Reselect"]))
				}
			}
		}
		if len(slow) == 0 {
			return
		}
	}
	t.Errorf("in each of %d runs; the last: %v", attempts, slow)
}

func TestAblationsTable(t *testing.T) {
	tab, err := tinyEnv().Run("ablations")
	if err != nil {
		t.Fatal(err)
	}
	mechanisms := map[string]int{}
	for _, row := range tab.Rows {
		mechanisms[row[0]]++
	}
	// prefetch-bounds is one row (bound pass and seeded response); its
	// on/off comparison is Figure 13.
	for mech, want := range map[string]int{"marginal-evaluation": 2, "conflict-removal": 2, "sample-bound": 2, "prefetch-bounds": 1} {
		if mechanisms[mech] != want {
			t.Errorf("mechanism %s has %d variants, want %d", mech, mechanisms[mech], want)
		}
	}
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}
