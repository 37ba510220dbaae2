package dataset

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"geosel/internal/geo"
	"geosel/internal/geodata"
)

func TestSpecValidate(t *testing.T) {
	good := UKSpec(100, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []func(*Spec){
		func(s *Spec) { s.N = -1 },
		func(s *Spec) { s.Clusters = 0 },
		func(s *Spec) { s.ClusterSigma = 0 },
		func(s *Spec) { s.BackgroundFrac = -0.1 },
		func(s *Spec) { s.BackgroundFrac = 1.1 },
		func(s *Spec) { s.TopicsPerCluster = 0 },
		func(s *Spec) { s.WordsPerObject = 0 },
		func(s *Spec) { s.TopicWordFrac = 2 },
		func(s *Spec) { s.TailVocab = 0 },
	}
	for i, mut := range cases {
		s := good
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestPresetSpec(t *testing.T) {
	for name, want := range map[string]Spec{"uk": UKSpec(50, 2), "us": USSpec(50, 2), "poi": POISpec(50, 2)} {
		got, err := PresetSpec(name, 50, 2)
		if err != nil || got != want {
			t.Errorf("PresetSpec(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "UK", "atlantis"} {
		if _, err := PresetSpec(name, 50, 2); err == nil || !strings.Contains(err.Error(), "unknown preset") {
			t.Errorf("PresetSpec(%q): %v, want an unknown-preset error", name, err)
		}
	}
}

func TestLoad(t *testing.T) {
	col, err := Generate(POISpec(40, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, col); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/d.bin"
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, "ignored", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != col.Len() {
		t.Errorf("Load: %d objects, want %d", got.Len(), col.Len())
	}
	if _, err := Load(path+".missing", "poi", 10, 1); err == nil {
		t.Error("a missing file loaded without error")
	}
	gen, err := Load("", "uk", 30, 4)
	if err != nil || gen.Len() != 30 {
		t.Errorf("Load of a preset: %v", err)
	}
	if _, err := Load("", "mars", 30, 4); err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Errorf("Load of an unknown preset: %v", err)
	}
}

func TestGenerateBasicProperties(t *testing.T) {
	col, err := Generate(UKSpec(5000, 42))
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 5000 {
		t.Fatalf("len = %d", col.Len())
	}
	if err := col.Validate(); err != nil {
		t.Fatalf("generated collection invalid: %v", err)
	}
	// All locations in the unit square; all objects have text.
	for i := range col.Objects {
		o := &col.Objects[i]
		if !geo.WorldUnit.Contains(o.Loc) {
			t.Fatalf("object %d at %v outside unit square", i, o.Loc)
		}
		if len(o.Vec.Words) == 0 {
			t.Fatalf("object %d has empty term vector", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(POISpec(500, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(POISpec(500, 7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Objects {
		if a.Objects[i].Loc != b.Objects[i].Loc || a.Objects[i].Text != b.Objects[i].Text ||
			a.Objects[i].Weight != b.Objects[i].Weight {
			t.Fatalf("object %d differs between equal seeds", i)
		}
	}
	c, err := Generate(POISpec(500, 8))
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Objects {
		if a.Objects[i].Loc == c.Objects[i].Loc {
			same++
		}
	}
	if same == len(a.Objects) {
		t.Error("different seeds generated identical locations")
	}
}

func TestGenerateSpatialSkew(t *testing.T) {
	// Cluster structure: the densest 10% of cells must hold far more
	// than 10% of the objects (compare against a uniform distribution).
	col, err := Generate(UKSpec(20000, 11))
	if err != nil {
		t.Fatal(err)
	}
	const g = 20
	var cells [g * g]int
	for i := range col.Objects {
		o := &col.Objects[i]
		cx := int(o.Loc.X * g)
		cy := int(o.Loc.Y * g)
		if cx >= g {
			cx = g - 1
		}
		if cy >= g {
			cy = g - 1
		}
		cells[cy*g+cx]++
	}
	counts := append([]int(nil), cells[:]...)
	// Simple selection of the top decile by sorting.
	for i := 0; i < len(counts); i++ {
		for j := i + 1; j < len(counts); j++ {
			if counts[j] > counts[i] {
				counts[i], counts[j] = counts[j], counts[i]
			}
		}
	}
	top := 0
	for _, c := range counts[:g*g/10] {
		top += c
	}
	if frac := float64(top) / float64(col.Len()); frac < 0.4 {
		t.Errorf("top-decile cells hold %.2f of objects; expected heavy skew (> 0.4)", frac)
	}
}

func TestGenerateTopicCorrelation(t *testing.T) {
	// Objects near each other share topics: mean cosine similarity of
	// close pairs must exceed that of random pairs by a wide margin.
	col, err := Generate(UKSpec(5000, 13))
	if err != nil {
		t.Fatal(err)
	}
	store, err := geodata.NewStore(col)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	var closeSum, randSum float64
	var closeN, randN int
	for i := 0; i < 400; i++ {
		a := rng.Intn(col.Len())
		// Close pair: within a small window.
		window := store.Region(geo.RectAround(col.Objects[a].Loc, 0.01))
		if len(window) > 1 {
			b := window[rng.Intn(len(window))]
			if b != a {
				closeSum += col.Objects[a].Vec.Cosine(col.Objects[b].Vec)
				closeN++
			}
		}
		c := rng.Intn(col.Len())
		if c != a {
			randSum += col.Objects[a].Vec.Cosine(col.Objects[c].Vec)
			randN++
		}
	}
	if closeN < 50 {
		t.Fatalf("too few close pairs sampled: %d", closeN)
	}
	closeMean := closeSum / float64(closeN)
	randMean := randSum / float64(randN)
	if closeMean < randMean*1.5 {
		t.Errorf("close-pair similarity %.4f not much above random %.4f", closeMean, randMean)
	}
}

func TestGenerateZeroN(t *testing.T) {
	col, err := Generate(UKSpec(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 0 {
		t.Errorf("len = %d", col.Len())
	}
}

func TestGenerateStore(t *testing.T) {
	store, err := GenerateStore(POISpec(1000, 3))
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1000 {
		t.Errorf("store len = %d", store.Len())
	}
	if _, err := GenerateStore(Spec{N: -1}); err == nil {
		t.Error("invalid spec should fail")
	}
}

func TestRandomRegion(t *testing.T) {
	store, err := GenerateStore(UKSpec(2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	bounds, _ := store.Bounds()
	for i := 0; i < 50; i++ {
		r, err := RandomRegion(store, 0.1, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !bounds.ContainsRect(r) {
			t.Fatalf("region %v escapes bounds %v", r, bounds)
		}
		wantSide := 0.1 * math.Max(bounds.Width(), bounds.Height())
		if math.Abs(r.Width()-wantSide) > 1e-9 {
			t.Fatalf("region width %v, want %v", r.Width(), wantSide)
		}
	}
	if _, err := RandomRegion(store, 0, rng); err == nil {
		t.Error("zero fraction should fail")
	}
	empty, _ := geodata.NewStore(geodata.NewCollection())
	if _, err := RandomRegion(empty, 0.1, rng); err == nil {
		t.Error("empty store should fail")
	}
}

func TestRandomZoomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.2)
	for i := 0; i < 100; i++ {
		in, err := RandomZoomIn(region, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !region.ContainsRect(in) {
			t.Fatalf("zoom-in target %v escapes %v", in, region)
		}
		if math.Abs(in.Width()-region.Width()*0.5) > 1e-9 {
			t.Fatalf("zoom-in width %v", in.Width())
		}
		out, err := RandomZoomOut(region, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !out.ContainsRect(region) {
			t.Fatalf("zoom-out target %v does not cover %v", out, region)
		}
	}
	if _, err := RandomZoomIn(region, 1.5, rng); err == nil {
		t.Error("zoom-in scale > 1 should fail")
	}
	if _, err := RandomZoomOut(region, 0.5, rng); err == nil {
		t.Error("zoom-out scale < 1 should fail")
	}
}

func TestRandomPan(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	region := geo.RectAround(geo.Pt(0.5, 0.5), 0.2)
	for _, overlap := range []float64{0.1, 0.5, 0.9, 1.0} {
		d, err := RandomPan(region, overlap, rng)
		if err != nil {
			t.Fatal(err)
		}
		moved := region.Translate(d)
		inter, ok := region.Intersect(moved)
		if !ok {
			t.Fatalf("overlap %v: no intersection", overlap)
		}
		got := inter.Width() * inter.Height() / (region.Width() * region.Height())
		if math.Abs(got-overlap) > 1e-9 {
			t.Fatalf("overlap %v: got %v", overlap, got)
		}
	}
	if _, err := RandomPan(region, 0, rng); err == nil {
		t.Error("zero overlap should fail")
	}
	if _, err := RandomPan(region, 1.1, rng); err == nil {
		t.Error("overlap > 1 should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	col, err := Generate(POISpec(200, 9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, col); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != col.Len() {
		t.Fatalf("len %d, want %d", got.Len(), col.Len())
	}
	for i := range col.Objects {
		a, b := &col.Objects[i], &got.Objects[i]
		if a.ID != b.ID || a.Loc != b.Loc || a.Weight != b.Weight || a.Text != b.Text {
			t.Fatalf("object %d differs after round trip: %+v vs %+v", i, a, b)
		}
		if c := a.Vec.Cosine(b.Vec); c < 1-0x1p-20 && len(a.Vec.Words) != 0 {
			t.Fatalf("object %d term vector changed: cosine %v", i, c)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"wrong,header,x,y,z\n",
		"id,x,y,weight,text\nnotanint,0,0,0.5,hi\n",
		"id,x,y,weight,text\n1,notafloat,0,0.5,hi\n",
		"id,x,y,weight,text\n1,0,notafloat,0.5,hi\n",
		"id,x,y,weight,text\n1,0,0,notafloat,hi\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	col, err := Generate(POISpec(150, 10))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, col); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != col.Len() {
		t.Fatalf("len %d, want %d", got.Len(), col.Len())
	}
	for i := range col.Objects {
		a, b := &col.Objects[i], &got.Objects[i]
		if a.ID != b.ID || a.Loc != b.Loc || a.Weight != b.Weight || a.Text != b.Text {
			t.Fatalf("object %d differs after round trip", i)
		}
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Error("bad JSON accepted")
	}
	col, err := ReadJSONL(strings.NewReader(""))
	if err != nil || col.Len() != 0 {
		t.Errorf("empty input: %v, len %d", err, col.Len())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	col, err := Generate(UKSpec(300, 15))
	if err != nil {
		t.Fatal(err)
	}
	// Exercise negative ids and empty text too.
	col.Add(-5, geo.Pt(0.1, 0.9), 0.25, "")
	var buf bytes.Buffer
	if err := WriteBinary(&buf, col); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAuto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != col.Len() {
		t.Fatalf("len %d, want %d", got.Len(), col.Len())
	}
	for i := range col.Objects {
		a, b := &col.Objects[i], &got.Objects[i]
		if a.ID != b.ID || a.Loc != b.Loc || a.Weight != b.Weight || a.Text != b.Text {
			t.Fatalf("object %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestBinarySmallerThanCSV(t *testing.T) {
	col, err := Generate(UKSpec(2000, 16))
	if err != nil {
		t.Fatal(err)
	}
	var bin, csvBuf bytes.Buffer
	if err := WriteBinary(&bin, col); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csvBuf, col); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= csvBuf.Len() {
		t.Errorf("binary %d bytes not smaller than CSV %d", bin.Len(), csvBuf.Len())
	}
}

func TestReadBinaryErrors(t *testing.T) {
	col, _ := Generate(POISpec(10, 17))
	var buf bytes.Buffer
	if err := WriteBinary(&buf, col); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("XXXX"), good[4:]...)},
		{"bad version", append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...)},
		{"truncated", good[:len(good)/2]},
	}
	for _, c := range cases {
		if _, err := readSnapshot(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", c.name)
		}
	}
	// Oversized text-length prefix.
	var evil bytes.Buffer
	evil.WriteString("GSNP")
	evil.WriteByte(1)
	evil.Write([]byte{1})                                  // count = 1
	evil.Write([]byte{2})                                  // id = 1 zigzag
	evil.Write(make([]byte, 24))                           // x, y, weight
	evil.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // huge text length
	if _, err := readSnapshot(&evil); err == nil {
		t.Error("oversized text length accepted")
	}
}

// WriteBinary refuses a text the snapshot reader would refuse to load, rather
// than writing a snapshot nothing can read back.
func TestWriteBinaryRejectsUnreadableText(t *testing.T) {
	col := geodata.NewCollection()
	col.Objects = append(col.Objects, geodata.Object{ID: 1, Text: strings.Repeat("a", maxBinaryText+1)})
	if err := WriteBinary(io.Discard, col); err == nil {
		t.Fatal("text over the reader's limit written")
	}
	col.Objects[0].Text = col.Objects[0].Text[:maxBinaryText]
	var buf bytes.Buffer
	if err := WriteBinary(&buf, col); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAuto(&buf)
	if err != nil || len(back.Objects) != 1 || back.Objects[0].Text != col.Objects[0].Text {
		t.Fatalf("text at the limit did not round-trip: err %v", err)
	}
}

func TestReadAuto(t *testing.T) {
	col, err := Generate(POISpec(50, 18))
	if err != nil {
		t.Fatal(err)
	}
	writers := map[string]func(*bytes.Buffer) error{
		"csv":    func(b *bytes.Buffer) error { return WriteCSV(b, col) },
		"jsonl":  func(b *bytes.Buffer) error { return WriteJSONL(b, col) },
		"binary": func(b *bytes.Buffer) error { return WriteBinary(b, col) },
	}
	for name, write := range writers {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadAuto(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Len() != col.Len() {
			t.Fatalf("%s: len %d, want %d", name, got.Len(), col.Len())
		}
	}
	if _, err := ReadAuto(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
}
