package dataset

import (
	"bytes"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// The three readers must never panic on arbitrary input — they are the
// untrusted-data boundary of the library — and whatever one accepts its
// own format must carry back bit for bit.

// checkRoundTrip fails unless col, written with write and read back with
// read, comes back with the same objects: IDs, float bits and text. The
// term vectors and the vocabulary of col and of what comes back must be
// what Collection.Add builds from the same records one at a time.
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
	ref := geodata.NewCollection()
	for _, o := range col.Objects {
		ref.Add(o.ID, o.Loc, o.Weight, o.Text)
	}
	checkVectors(t, col, ref)
	checkVectors(t, back, col)
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
		checkRoundTrip(t, col, WriteJSONL, ReadJSONL)
	})
}

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
	f.Add([]byte("GSNP\x01\x00"))
	// A text longer than the reader's 4 KiB buffer, between short ones.
	col.Add(9, geo.Pt(0.5, 0.5), 0.5, strings.Repeat("Größe ", 1000)+"end")
	col.Add(10, geo.Pt(0.5, 0.5), 0.5, "after")
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
		checkRoundTrip(t, col, WriteBinary, ReadAuto)
	})
}

func FuzzReadAuto(f *testing.F) {
	f.Add([]byte("GSNP\x01\x00"))
	f.Add([]byte(`{"id":1}`))
	f.Add([]byte("id,x,y,weight,text\n1,0,0,0.5,hi\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReadAuto(bytes.NewReader(data))
	})
}
