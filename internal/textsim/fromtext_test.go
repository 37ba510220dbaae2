package textsim_test

import (
	"slices"
	"testing"

	"geosel/internal/dataset"
	"geosel/internal/textsim"
)

// Every object of the POI fixture the server loads by default gets the
// reference's words, and the vocabulary assigns the same ids in the
// same order.
func TestFromTextMatchesReferenceOnPOI(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 10000
	}
	col, err := dataset.Generate(dataset.POISpec(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	ref := textsim.NewReferenceVocab()
	for i := range col.Objects {
		o := &col.Objects[i]
		if want := textsim.ReferenceFromText(ref, o.Text); !slices.Equal(o.Vec.Words, want.Words) {
			t.Fatalf("object %d %q: words %x, reference %x", i, o.Text, o.Vec.Words, want.Words)
		}
	}
	if got, want := textsim.VocabTerms(col.Vocab), ref.Terms; !slices.Equal(got, want) {
		t.Fatalf("vocabulary order differs: %d terms, reference %d", len(got), len(want))
	}
}

// BenchmarkFromText builds one POI text's vector per op against a
// vocabulary that already knows every term, as a load does once the
// vocabulary has filled and every ingest does.
func BenchmarkFromText(b *testing.B) {
	col, err := dataset.Generate(dataset.POISpec(10000, 1))
	if err != nil {
		b.Fatal(err)
	}
	texts := make([]string, len(col.Objects))
	for i := range col.Objects {
		texts[i] = col.Objects[i].Text
	}
	vocab := col.Vocab
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		textsim.FromText(vocab, texts[i%len(texts)])
	}
}
