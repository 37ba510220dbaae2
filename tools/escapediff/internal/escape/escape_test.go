package escape

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"geosel/tools/internal/hotpath"
)

// collectGolden runs the full pipeline — canned -gcflags=-m transcript,
// annotated source scan, hot filtering — and returns the entries.
func collectGolden(t *testing.T) []Entry {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "transcript.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	diags, err := ParseTranscript(f)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := hotpath.ScanDir(filepath.Join("testdata", "src", "hot"))
	if err != nil {
		t.Fatal(err)
	}
	return Collect(hot, diags)
}

func TestCollectGolden(t *testing.T) {
	got := collectGolden(t)
	file := filepath.Join("testdata", "src", "hot", "hot.go")
	want := []Entry{
		{Pkg: "example.com/hot", File: file, Func: "HotSum", Msg: "make([]int, 0, len(xs)) escapes to heap", Count: 1},
		{Pkg: "example.com/hot", File: file, Func: "HotSum", Msg: "moved to heap: out", Count: 1},
		{Pkg: "example.com/hot", File: file, Func: "Outer$1", Msg: "make([]int, 8) escapes to heap", Count: 1},
		{Pkg: "example.com/hot", File: file, Func: "ring.grow", Msg: "make([]int, n) escapes to heap", Count: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Collect mismatch:\n got  %+v\n want %+v", got, want)
	}
}

// TestCollectFilters pins the three filtering rules individually: the
// coldpath-acknowledged new(int) in HotAck, the unannotated coldAlloc,
// and non-escape diagnostic classes must all be absent.
func TestCollectFilters(t *testing.T) {
	for _, e := range collectGolden(t) {
		switch {
		case e.Func == "HotAck":
			t.Errorf("coldpath-acknowledged site leaked into the baseline: %+v", e)
		case e.Func == "coldAlloc":
			t.Errorf("escape outside the hot set leaked into the baseline: %+v", e)
		case e.Msg == "leaking param: xs" || e.Msg == "func literal does not escape":
			t.Errorf("non-escape diagnostic class leaked into the baseline: %+v", e)
		}
	}
}

// TestDiffDeliberateEscape is the CI-failure path: a fresh run that
// gains one escape (and one grown count) against the committed baseline
// must surface exactly those as added.
func TestDiffDeliberateEscape(t *testing.T) {
	base := collectGolden(t)
	cur := append([]Entry(nil), base...)
	// A deliberate new escape in an already-clean hot function...
	cur = append(cur, Entry{Pkg: "example.com/hot", File: base[0].File, Func: "ring.grow", Msg: "moved to heap: spill", Count: 1})
	// ...and an existing site that now fires twice.
	cur[0].Count = 2

	added, removed := Diff(base, cur)
	if len(removed) != 0 {
		t.Errorf("unexpected removals: %+v", removed)
	}
	if len(added) != 2 {
		t.Fatalf("want 2 added entries, got %+v", added)
	}
	if added[0].Func != "HotSum" || added[0].Count != 1 {
		t.Errorf("grown count should diff as +1, got %+v", added[0])
	}
	if added[1].Func != "ring.grow" || added[1].Msg != "moved to heap: spill" {
		t.Errorf("new escape missing from added: %+v", added[1])
	}
}

// TestDiffRemoved covers the advisory direction: escapes that vanish
// (or shrink) prompt a re-baseline but never fail.
func TestDiffRemoved(t *testing.T) {
	base := collectGolden(t)
	cur := base[:len(base)-1]
	added, removed := Diff(base, cur)
	if len(added) != 0 {
		t.Errorf("unexpected additions: %+v", added)
	}
	if len(removed) != 1 || removed[0].Func != base[len(base)-1].Func {
		t.Errorf("want the dropped entry as removed, got %+v", removed)
	}
}

func TestDiffClean(t *testing.T) {
	base := collectGolden(t)
	added, removed := Diff(base, base)
	if len(added) != 0 || len(removed) != 0 {
		t.Errorf("identical sets must diff empty, got added=%+v removed=%+v", added, removed)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	b := &Baseline{GoVersion: "go1.24.0", Entries: collectGolden(t)}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Errorf("round trip mismatch:\n got  %+v\n want %+v", got, b)
	}
}
