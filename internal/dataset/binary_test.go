package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
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

// snapshotHead is the start of a snapshot: the magic, the version and
// a vocabulary of the given terms.
func snapshotHead(terms ...string) []byte {
	data := append([]byte(binaryMagic), binaryVersion)
	data = binary.AppendUvarint(data, uint64(len(terms)))
	for _, term := range terms {
		data = binary.AppendUvarint(data, uint64(len(term)))
		data = append(data, term...)
	}
	return data
}

// TestReadBinaryHugeCount: a header claiming 2⁴⁰ objects ahead of one
// truncated record, 2⁴⁰ vocabulary terms ahead of one, or a record
// claiming 2⁴⁰ terms ahead of one, fails without a large allocation,
// whether the stream's length is known (in memory, a file) or not.
func TestReadBinaryHugeCount(t *testing.T) {
	objects := binary.AppendUvarint(snapshotHead(), 1<<40)
	objects = append(objects, 2) // id 1, then the stream ends inside x
	objects = append(objects, make([]byte, 10)...)

	terms := append([]byte(binaryMagic), binaryVersion)
	terms = binary.AppendUvarint(terms, 1<<40)
	terms = append(terms, 1, 'a') // one term, then the stream ends

	counts := binary.AppendUvarint(snapshotHead("a", "b"), 1)
	counts = append(counts, 2)                   // id 1
	counts = append(counts, make([]byte, 24)...) // x, y, weight
	counts = binary.AppendUvarint(counts, 1<<40) // its term count
	counts = append(counts, 0)                   // one term, then the stream ends

	for what, data := range map[string][]byte{"objects": objects, "terms": terms, "term counts": counts} {
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
				t.Errorf("%s, %s: a count the stream cannot hold was accepted", what, name)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("%s, %s: failing read allocated %d bytes", what, name, got)
			}
		}
	}
}

// TestReadBinaryRefusesVersion1: a snapshot of the first version,
// which stored texts only, is refused with an error that names its
// version, not read as something else.
func TestReadBinaryRefusesVersion1(t *testing.T) {
	data := []byte("GSNP\x01")
	data = binary.AppendUvarint(data, 1)
	data = append(data, 2)                   // id 1
	data = append(data, make([]byte, 24)...) // x, y, weight
	data = append(data, 2, 'h', 'i')         // text "hi"
	for name, read := range map[string]func(io.Reader) (*geodata.Collection, error){"snapshot": readSnapshot, "ReadAuto": ReadAuto} {
		_, err := read(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Errorf("%s of a version 1 snapshot: %v, want an error naming version 1", name, err)
		}
	}
}

// TestReadBinaryCorruptTerms: a vocabulary or term counts the records
// cannot refer to consistently are refused.
func TestReadBinaryCorruptTerms(t *testing.T) {
	record := func(head []byte, terms ...byte) []byte {
		data := binary.AppendUvarint(head, 1)
		data = append(data, 2)                   // id 1
		data = append(data, make([]byte, 24)...) // x, y, weight
		data = append(data, terms...)
		return append(data, 1, 'a') // text "a"
	}
	cases := map[string][]byte{
		"repeated term":              record(snapshotHead("a", "b", "a"), 0),
		"empty term":                 record(snapshotHead("a", ""), 0),
		"id past vocabulary":         record(snapshotHead("a", "b"), 1, 2<<1),
		"second id past":             record(snapshotHead("a", "b"), 2, 1<<1, 0),
		"more terms than vocabulary": record(snapshotHead("a"), 2, 0, 0),
		"count past limit": record(snapshotHead("a"),
			binary.AppendUvarint([]byte{1, 1}, maxBinaryText-1)...),
	}
	for name, data := range cases {
		if _, err := readSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, terms := range [][]byte{{1, 0}, binary.AppendUvarint([]byte{1, 1}, maxBinaryText-2)} {
		if _, err := readSnapshot(bytes.NewReader(record(snapshotHead("a"), terms...))); err != nil {
			t.Errorf("the well-formed terms %x the cases corrupt: %v", terms, err)
		}
	}
}

// TestBinaryMatchesTextPath: a written snapshot loads into exactly the
// vocabulary and vectors Collection.Add builds from its texts in order
// — the ids, the spellings and every Words bit — for a generated
// collection, for one whose vocabulary has grown past its objects'
// terms (ingested objects, some then dropped, so its ids are not in the
// objects' order of first appearance), and for one whose vectors were
// reweighted by TF-IDF, which a snapshot does not carry.
func TestBinaryMatchesTextPath(t *testing.T) {
	generated, err := Generate(UKSpec(3000, 21))
	if err != nil {
		t.Fatal(err)
	}
	grown, err := Generate(POISpec(2000, 22))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		grown.Add(100000+i, geo.Pt(0.5, 0.5), 0.5, fmt.Sprintf("ingested%d Straße %d", i%17, i))
	}
	grown.Objects = grown.Objects[500:]
	tfidf, err := Generate(POISpec(2000, 23))
	if err != nil {
		t.Fatal(err)
	}
	tfidf.ApplyTFIDF()
	for name, col := range map[string]*geodata.Collection{"generated": generated, "grown": grown, "tfidf": tfidf} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, col); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAuto(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) { checkVectors(t, back, textPath(col)) })
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
// intern the stored vocabulary and rebuild every term vector from its
// stored counts.
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
