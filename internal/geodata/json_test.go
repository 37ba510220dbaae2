package geodata

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"geosel/internal/geo"
)

// wireObject is the struct whose encoding/json form AppendObjectJSON
// must reproduce byte for byte.
type wireObject struct {
	ID     int     `json:"id"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Weight float64 `json:"weight"`
	Text   string  `json:"text,omitempty"`
}

// checkObjectJSON compares the renderer with json.Marshal on one object
// and reports whether encoding/json could encode it at all.
func checkObjectJSON(t *testing.T, o Object) bool {
	t.Helper()
	want, err := json.Marshal(wireObject{ID: o.ID, X: o.Loc.X, Y: o.Loc.Y, Weight: o.Weight, Text: o.Text})
	if err != nil {
		return false // NaN or ±Inf: outside the renderer's contract
	}
	prefix := []byte("prefix")
	got := AppendObjectJSON(prefix, &o)
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("AppendObjectJSON clobbered dst: %q", got)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		t.Errorf("object %+v:\n got %s\nwant %s", o, got, want)
	}
	return true
}

var adversarialTexts = []string{
	"", "cafe pier", `say "hi"`, `back\slash`, "<script>&amp;</script>", "a&b", "x>y", "x<y",
	"line\u2028sep", "para\u2029sep", "caf\u00e9 \u6771\u4eac", "bad\xffutf8", "trunc\xe2\x82", "\x00\x01\x1f", "tab\there",
	"nl\nhere", "cr\rhere", "bs\bff\f", "del\x7f", "~ !#$%'()*+,-./:;=?@[]^_`{|}", "\xf0\x9f\x97\xba map",
}

var adversarialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e21, 9.999999999999999e20, -1e21, 1e-6, 1e-7, 9.99e-7, 1e-10, 1.5e-9,
	1e100, 1e-100, 5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64,
	0.1 + 0.2, 1.0 / 3, 123456789.123456789, 1e20, 123456789012345678901.0,
}

var adversarialIDs = []int{0, 1, -1, 42, -42, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}

func TestAppendObjectJSONMatchesEncodingJSON(t *testing.T) {
	for _, text := range adversarialTexts {
		checkObjectJSON(t, Object{ID: 7, Loc: geo.Pt(0.25, 0.75), Weight: 0.5, Text: text})
	}
	for i, f := range adversarialFloats {
		g := adversarialFloats[(i+1)%len(adversarialFloats)]
		checkObjectJSON(t, Object{ID: i, Loc: geo.Pt(f, g), Weight: f, Text: "t"})
		checkObjectJSON(t, Object{ID: i, Loc: geo.Pt(g, f), Weight: g})
	}
	for _, id := range adversarialIDs {
		checkObjectJSON(t, Object{ID: id, Loc: geo.Pt(0.1, 0.2), Weight: 1})
	}
	for _, o := range buildCollection(500, 3).Objects {
		checkObjectJSON(t, o)
	}
}

func TestAppendObjectsJSONMatchesEncodingJSON(t *testing.T) {
	objs := buildCollection(20, 4).Objects
	objs[3].Text = ""
	objs[5].Text = `q"<`
	for _, positions := range [][]int{{}, nil, {4}, {5, 3, 3, 19, 0}} {
		want := make([]wireObject, 0, len(positions))
		for _, p := range positions {
			o := objs[p]
			want = append(want, wireObject{ID: o.ID, X: o.Loc.X, Y: o.Loc.Y, Weight: o.Weight, Text: o.Text})
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendObjectsJSON(nil, objs, positions); !bytes.Equal(got, wantJSON) {
			t.Errorf("positions %v:\n got %s\nwant %s", positions, got, wantJSON)
		}
	}
}

// TestAppendObjectJSONDoesNotAllocate: with room in dst and a text that
// needs no escaping — what every generated dataset holds — rendering is
// allocation-free, for a text longer than the 32 bytes a temporary
// string may keep on the stack too.
func TestAppendObjectJSONDoesNotAllocate(t *testing.T) {
	c := buildCollection(50, 5)
	c.Add(50, geo.Pt(0.5, 0.5), 0.5, strings.Repeat("museum coffee ", 6))
	objs := c.Objects
	positions := []int{1, 7, 22, 49, 50}
	dst := make([]byte, 0, 1024)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = AppendObjectsJSON(dst[:0], objs, positions)
	}); allocs > 0 {
		t.Fatalf("AppendObjectsJSON allocates %.2f objects per call", allocs)
	}
}

func FuzzAppendObjectJSON(f *testing.F) {
	for i, text := range adversarialTexts {
		x := adversarialFloats[i%len(adversarialFloats)]
		y := adversarialFloats[(i+7)%len(adversarialFloats)]
		f.Add(adversarialIDs[i%len(adversarialIDs)], x, y, 0.5, text)
	}
	f.Add(3, math.NaN(), 0.0, 0.0, "nan is refused by both")
	f.Fuzz(func(t *testing.T, id int, x, y, w float64, text string) {
		checkObjectJSON(t, Object{ID: id, Loc: geo.Pt(x, y), Weight: w, Text: text})
	})
}
