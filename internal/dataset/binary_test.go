package dataset

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestReadBinaryHugeCount: a header claiming 2⁴⁰ objects ahead of one
// truncated record fails without a large allocation, whether the
// stream's length is known (in memory, a file) or not.
func TestReadBinaryHugeCount(t *testing.T) {
	data := []byte("GSNP\x01")
	data = binary.AppendUvarint(data, 1<<40)
	data = append(data, 2) // id 1, then the stream ends inside x
	data = append(data, make([]byte, 10)...)
	path := filepath.Join(t.TempDir(), "huge.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	read := map[string]func() error{
		"bytes": func() error { _, err := ReadBinary(bytes.NewReader(data)); return err },
		"opaque": func() error {
			_, err := ReadBinary(struct{ io.Reader }{bytes.NewReader(data)})
			return err
		},
		"file": func() error { _, err := Load(path, "", 0, 0); return err },
	}
	for name, f := range read {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a count the stream cannot hold was accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: failing read allocated %d bytes", name, got)
		}
	}
}

// TestReadBinaryExactCap: a snapshot of known length loads into an
// objects array exactly its count long, through ReadBinary and through
// Load's file path alike.
func TestReadBinaryExactCap(t *testing.T) {
	col, err := Generate(POISpec(3000, 1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, col); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "poi.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string][]int{
		"ReadBinary": {len(got.Objects), cap(got.Objects)},
		"Load":       {len(loaded.Objects), cap(loaded.Objects)},
	} {
		if c[0] != col.Len() || c[1] != c[0] {
			t.Errorf("%s: len %d cap %d, want both %d", name, c[0], c[1], col.Len())
		}
	}
}

// BenchmarkReadBinary loads the benchmark's 100 000-object POI snapshot
// from memory: parse, tokenize, intern and build every term vector.
func BenchmarkReadBinary(b *testing.B) {
	col, err := Generate(POISpec(100000, 1))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, col); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
