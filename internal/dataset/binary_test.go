package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// readSnapshot reads r as a snapshot, as ReadAuto does once it has seen
// the magic: a stream that is not one fails here rather than reading
// as CSV, so the snapshot reader's own errors can be checked.
func readSnapshot(r io.Reader) (*geodata.Collection, error) {
	return readBinary(bufio.NewReader(r), unreadBytes(r))
}

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
		"bytes": func() error { _, err := readSnapshot(bytes.NewReader(data)); return err },
		"opaque": func() error {
			_, err := readSnapshot(struct{ io.Reader }{bytes.NewReader(data)})
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

// TestReadExactCap: every reader loads into an objects array exactly
// as long as its records, whether or not the format carries a count,
// through the reader on a stream and through Load's file path alike.
func TestReadExactCap(t *testing.T) {
	col, err := Generate(POISpec(3000, 1))
	if err != nil {
		t.Fatal(err)
	}
	formats := []struct {
		name  string
		write func(io.Writer, *geodata.Collection) error
		read  func(io.Reader) (*geodata.Collection, error)
	}{
		{"binary", WriteBinary, ReadAuto},
		{"csv", WriteCSV, ReadCSV},
		{"jsonl", WriteJSONL, ReadJSONL},
	}
	for _, f := range formats {
		var buf bytes.Buffer
		if err := f.write(&buf, col); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "poi."+f.name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := f.read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(path, "", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*geodata.Collection{"reader": got, "Load": loaded} {
			if n := len(c.Objects); n != col.Len() || cap(c.Objects) != n {
				t.Errorf("%s via %s: len %d cap %d, want both %d", f.name, name, n, cap(c.Objects), col.Len())
			}
		}
	}
}

// TestReadBinaryAllocs: a load allocates per chunk of texts and words,
// not per object. At 20 000 objects the parent's per-object strings and
// arrays came to about 41 600 allocations.
func TestReadBinaryAllocs(t *testing.T) {
	col, err := Generate(POISpec(20000, 1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, col); err != nil {
		t.Fatal(err)
	}
	var textBytes, words int
	for i := range col.Objects {
		textBytes += len(col.Objects[i].Text)
		words += len(col.Objects[i].Vec.Words)
	}
	// Texts fill chunks of textChunk bytes and words chunks of 64 KiB;
	// the rest (reader, vocabulary growth, objects array) does not
	// depend on the object count.
	const fixed = 120
	bound := fixed + textBytes/textChunk + 8*words/(64<<10) + 2
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := ReadAuto(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(bound) {
		t.Errorf("ReadAuto of a %d-object snapshot: %v allocations, want at most %d", col.Len(), allocs, bound)
	}
	t.Logf("%v allocations, bound %d", allocs, bound)
}

// TestReadBinaryErrorsWherever: a snapshot cut at any byte fails with
// the error the field-by-field reader gives, whether the record heads
// are decoded from the buffer or read one field at a time (a stream
// that delivers one byte per read never buffers a whole head), and
// texts longer than the buffer fail the same way as short ones.
func TestReadBinaryErrorsWherever(t *testing.T) {
	col, err := Generate(POISpec(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	col.Add(-7, geo.Pt(0.5, 0.5), 0.5, strings.Repeat("long text ", 500))
	col.Add(8, geo.Pt(0.25, 0.75), 1, "")
	var buf bytes.Buffer
	if err := WriteBinary(&buf, col); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for n := 0; n < len(data); n++ {
		_, fast := readSnapshot(bytes.NewReader(data[:n]))
		_, slow := readSnapshot(iotest.OneByteReader(bytes.NewReader(data[:n])))
		if fast == nil || slow == nil || fast.Error() != slow.Error() {
			t.Fatalf("cut at %d of %d bytes: error %v, one byte per read %v", n, len(data), fast, slow)
		}
	}
	for _, r := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data))} {
		back, err := readSnapshot(r)
		if err != nil || back.Len() != col.Len() {
			t.Fatalf("whole snapshot: %v", err)
		}
		checkVectors(t, back, col)
	}
}

// BenchmarkReadBinary loads the benchmark's 100 000-object POI snapshot
// from memory through ReadAuto, as every program loads it: parse,
// tokenize, intern and build every term vector.
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
		if _, err := ReadAuto(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
