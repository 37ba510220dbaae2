package dataset

import (
	"bytes"
	"io"
	"math"
	"testing"

	"geosel/internal/geodata"
)

// The three readers must never panic on arbitrary input — they are the
// untrusted-data boundary of the library — and whatever one accepts its
// own format must carry back bit for bit.

// checkRoundTrip fails unless col, written with write and read back with
// read, comes back with the same objects: IDs, float bits and text.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		col, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if col == nil {
			t.Fatal("nil collection without error")
		}
		checkRoundTrip(t, col, WriteBinary, ReadBinary)
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
