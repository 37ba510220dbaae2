package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// Binary snapshot format: a compact, stream-friendly encoding for large
// collections (CSV parsing dominates load time beyond ~10⁶ objects).
//
//	magic   "GSNP"          4 bytes
//	version u8              currently 1
//	count   uvarint
//	per object:
//	  id     varint (zigzag)
//	  x,y    float64 LE
//	  weight float64 LE
//	  text   uvarint length + bytes
const (
	binaryMagic   = "GSNP"
	binaryVersion = 1
	// maxBinaryText guards against corrupt length prefixes.
	maxBinaryText = 1 << 20
	// minBinaryRecord is the smallest encoded object: a one-byte id,
	// the three floats and a one-byte text length. A stream with b
	// unread bytes holds at most b/minBinaryRecord objects, whatever
	// its count says, so a corrupt count cannot force a large array.
	minBinaryRecord = 1 + 3*8 + 1
	// unsizedStart caps the array a stream of unknown length starts
	// with; past it the array grows by append.
	unsizedStart = 1 << 12
)

// WriteBinary streams the collection to w in the snapshot format.
func WriteBinary(w io.Writer, col *geodata.Collection) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return fmt.Errorf("dataset: writing magic: %w", err)
	}
	if err := bw.WriteByte(binaryVersion); err != nil {
		return fmt.Errorf("dataset: writing version: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putFloat := func(f float64) error {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(f))
		_, err := bw.Write(buf[:8])
		return err
	}
	if err := putUvarint(uint64(col.Len())); err != nil {
		return fmt.Errorf("dataset: writing count: %w", err)
	}
	for i := range col.Objects {
		o := &col.Objects[i]
		if err := putVarint(int64(o.ID)); err != nil {
			return fmt.Errorf("dataset: object %d id: %w", i, err)
		}
		for _, f := range [3]float64{o.Loc.X, o.Loc.Y, o.Weight} {
			if err := putFloat(f); err != nil {
				return fmt.Errorf("dataset: object %d floats: %w", i, err)
			}
		}
		if len(o.Text) > maxBinaryText {
			// ReadBinary refuses such a length, so writing it would
			// produce a snapshot nothing can load.
			return fmt.Errorf("dataset: object %d text length %d exceeds limit %d", i, len(o.Text), maxBinaryText)
		}
		if err := putUvarint(uint64(len(o.Text))); err != nil {
			return fmt.Errorf("dataset: object %d text length: %w", i, err)
		}
		if _, err := bw.WriteString(o.Text); err != nil {
			return fmt.Errorf("dataset: object %d text: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadBinary loads a collection from the snapshot format, rebuilding
// term vectors against a fresh vocabulary. When r can tell how many
// bytes it holds (an in-memory reader, a regular file), the objects
// array is allocated once, exactly the header's count long.
func ReadBinary(r io.Reader) (*geodata.Collection, error) {
	return readBinary(bufio.NewReader(r), unreadBytes(r))
}

// unreadBytes returns how many bytes r has left, or -1 when it cannot
// tell: an in-memory reader reports its Len, a regular file its size
// past the current offset.
func unreadBytes(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return max(fi.Size()-off, 0)
	}
	return -1
}

// readBinary is ReadBinary over br, whose stream has avail unread
// bytes (-1: unknown).
func readBinary(br *bufio.Reader, avail int64) (*geodata.Collection, error) {
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("dataset: bad magic %q", magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading version: %w", err)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("dataset: unsupported snapshot version %d", version)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading count: %w", err)
	}
	b := make([]byte, 8) // one buffer for every float: a per-read array escapes into io.ReadFull
	readFloat := func() (float64, error) {
		if _, err := io.ReadFull(br, b); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
	}
	size := min(count, unsizedStart)
	if avail >= 0 {
		size = min(count, uint64(avail)/minBinaryRecord)
	}
	col := geodata.NewCollection()
	col.Objects = make([]geodata.Object, 0, size)
	text := make([]byte, 0, 256)
	for i := uint64(0); i < count; i++ {
		id, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("dataset: object %d id: %w", i, err)
		}
		x, err := readFloat()
		if err != nil {
			return nil, fmt.Errorf("dataset: object %d x: %w", i, err)
		}
		y, err := readFloat()
		if err != nil {
			return nil, fmt.Errorf("dataset: object %d y: %w", i, err)
		}
		w, err := readFloat()
		if err != nil {
			return nil, fmt.Errorf("dataset: object %d weight: %w", i, err)
		}
		tlen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("dataset: object %d text length: %w", i, err)
		}
		if tlen > maxBinaryText {
			return nil, fmt.Errorf("dataset: object %d text length %d exceeds limit", i, tlen)
		}
		if uint64(cap(text)) < tlen {
			text = make([]byte, tlen)
		}
		text = text[:tlen]
		if _, err := io.ReadFull(br, text); err != nil {
			return nil, fmt.Errorf("dataset: object %d text: %w", i, err)
		}
		col.Add(int(id), geo.Pt(x, y), w, string(text))
	}
	return col, nil
}

// ReadAuto sniffs the stream format (binary snapshot, JSON lines or
// CSV) and dispatches to the matching reader.
func ReadAuto(r io.Reader) (*geodata.Collection, error) {
	avail := unreadBytes(r)
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	switch {
	case string(head) == binaryMagic:
		return readBinary(br, avail)
	case len(head) > 0 && head[0] == '{':
		return ReadJSONL(br)
	default:
		return ReadCSV(br)
	}
}
