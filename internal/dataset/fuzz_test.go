package dataset

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/textsim"
)

// The three readers must never panic on arbitrary input — they are the
// untrusted-data boundary of the library — and whatever one accepts its
// own format must carry back bit for bit.

// checkRoundTrip fails unless col, written with write and read back with
// read, comes back with the same objects: IDs, float bits and text. What
// comes back must carry the term vectors and the vocabulary that
// Collection.Add builds from the same records one at a time.
func checkRoundTrip(t *testing.T, col *geodata.Collection,
	write func(io.Writer, *geodata.Collection) error,
	read func(io.Reader) (*geodata.Collection, error)) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, col); err != nil {
		t.Fatalf("writing an accepted collection: %v", err)
	}
	back, err := read(&buf)
	if err != nil {
		t.Fatalf("reading back a written collection: %v", err)
	}
	if len(back.Objects) != len(col.Objects) {
		t.Fatalf("round trip: %d objects, want %d", len(back.Objects), len(col.Objects))
	}
	for i, o := range col.Objects {
		b := back.Objects[i]
		if b.ID != o.ID || b.Text != o.Text ||
			math.Float64bits(b.Loc.X) != math.Float64bits(o.Loc.X) ||
			math.Float64bits(b.Loc.Y) != math.Float64bits(o.Loc.Y) ||
			math.Float64bits(b.Weight) != math.Float64bits(o.Weight) {
			t.Fatalf("round trip: object %d = %+v, want %+v", i, b, o)
		}
	}
	checkVectors(t, back, textPath(col))
}

// textPath is col's records added one at a time by Collection.Add,
// which tokenizes each text against one fresh vocabulary.
func textPath(col *geodata.Collection) *geodata.Collection {
	ref := geodata.NewCollection()
	for _, o := range col.Objects {
		ref.Add(o.ID, o.Loc, o.Weight, o.Text)
	}
	return ref
}

// checkValid fails unless every vector of col is one a text could
// give against col's vocabulary: term ids strictly ascending and below
// its length, positive weights of unit length (or no words), and every
// term of the vocabulary non-empty and found under its own id.
func checkValid(t *testing.T, col *geodata.Collection) {
	t.Helper()
	n := col.Vocab.Len()
	for id := 0; id < n; id++ {
		term := col.Vocab.Term(id)
		if got, ok := col.Vocab.Lookup(term); term == "" || !ok || got != id {
			t.Fatalf("term %d %q looks up as %d, %v", id, term, got, ok)
		}
	}
	for i, o := range col.Objects {
		var norm2 float64
		for k, w := range o.Vec.Words {
			id := int(w >> 32)
			if id >= n || k > 0 && id <= int(o.Vec.Words[k-1]>>32) {
				t.Fatalf("object %d: words %x not ascending below %d", i, o.Vec.Words, n)
			}
			u := float64(textsim.UnpackWeight(w))
			if !(u > 0) {
				t.Fatalf("object %d: weight %v", i, u)
			}
			norm2 += u * u
		}
		if len(o.Vec.Words) > 0 && math.Abs(norm2-1) > 1e-5 {
			t.Fatalf("object %d: squared norm %v", i, norm2)
		}
	}
}

// checkVectors fails unless got's objects carry want's term vectors, bit
// for bit, and got's vocabulary holds want's terms in the same id order.
func checkVectors(t *testing.T, got, want *geodata.Collection) {
	t.Helper()
	for i := range want.Objects {
		if g, w := got.Objects[i].Vec.Words, want.Objects[i].Vec.Words; !slices.Equal(g, w) {
			t.Fatalf("object %d %q: words %x, want %x", i, want.Objects[i].Text, g, w)
		}
	}
	if got.Vocab.Len() != want.Vocab.Len() {
		t.Fatalf("vocabulary of %d terms, want %d", got.Vocab.Len(), want.Vocab.Len())
	}
	for id := 0; id < want.Vocab.Len(); id++ {
		if g, w := got.Vocab.Term(id), want.Vocab.Term(id); g != w {
			t.Fatalf("term %d is %q, want %q", id, g, w)
		}
	}
}

func FuzzReadCSV(f *testing.F) {
	col, err := Generate(POISpec(5, 1))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, col); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("id,x,y,weight,text\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		col, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if col == nil {
			t.Fatal("nil collection without error")
		}
		checkVectors(t, col, textPath(col))
		checkRoundTrip(t, col, WriteCSV, ReadCSV)
	})
}

func FuzzReadJSONL(f *testing.F) {
	col, err := Generate(POISpec(5, 2))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, col); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"id":1,"x":0.5,"y":0.5,"weight":0.5}`))
	f.Add([]byte(`{"id":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		col, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		if col == nil {
			t.Fatal("nil collection without error")
		}
		checkVectors(t, col, textPath(col))
		checkRoundTrip(t, col, WriteJSONL, ReadJSONL)
	})
}

// FuzzReadBinary: a snapshot's vectors come from its stored counts,
// not its texts, so an accepted stream need not match its texts; its
// vectors must still be valid ones (checkValid), and writing it back
// must give the snapshot of its texts.
func FuzzReadBinary(f *testing.F) {
	col, err := Generate(POISpec(5, 3))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, col); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("GSNP"))
	f.Add([]byte("GSNP\x02\x00\x00"))
	f.Add([]byte("GSNP\x01\x00"))
	f.Add(binary.AppendUvarint(snapshotHead("a", "b"), 0))
	// A text and a term longer than the reader's 4 KiB buffer, between
	// short ones.
	col.Add(9, geo.Pt(0.5, 0.5), 0.5, strings.Repeat("Größe ", 1000)+"end")
	col.Add(10, geo.Pt(0.5, 0.5), 0.5, "after")
	col.Add(11, geo.Pt(0.5, 0.5), 0.5, strings.Repeat("x", 5000)+" after")
	buf.Reset()
	if err := WriteBinary(&buf, col); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		col, err := readSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if col == nil {
			t.Fatal("nil collection without error")
		}
		checkValid(t, col)
		checkRoundTrip(t, col, WriteBinary, ReadAuto)
	})
}

func FuzzReadAuto(f *testing.F) {
	f.Add([]byte("GSNP\x02\x00\x00"))
	f.Add([]byte(`{"id":1}`))
	f.Add([]byte("id,x,y,weight,text\n1,0,0,0.5,hi\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReadAuto(bytes.NewReader(data))
	})
}
