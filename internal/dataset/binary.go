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
	// maxRecordHead is the longest head a record can have: the id and
	// the text length as ten-byte varints around the three floats.
	maxRecordHead = 2*binary.MaxVarintLen64 + 3*8
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
			// readBinary refuses such a length, so writing it would
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

// readBinary loads a collection from the snapshot format on br, whose
// stream has avail unread bytes (-1: unknown), rebuilding term vectors
// against a fresh vocabulary. ReadAuto calls it once it has seen the
// magic. When the stream's length is known (an in-memory reader, a
// regular file), the objects array is allocated once, exactly the
// header's count long.
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
	size := min(count, unsizedStart)
	if avail >= 0 {
		size = min(count, uint64(avail)/minBinaryRecord)
	}
	b := newBuilder(int(size))
	buf := make([]byte, 8) // the floats of every head readHead reads
	for i := uint64(0); i < count; i++ {
		h, ok := peekHead(br)
		if !ok {
			if h, err = readHead(br, i, buf); err != nil {
				return nil, err
			}
		}
		if h.tlen > maxBinaryText {
			return nil, fmt.Errorf("dataset: object %d text length %d exceeds limit", i, h.tlen)
		}
		if err := readText(br, b.add(int(h.id), geo.Pt(h.x, h.y), h.w, int(h.tlen))); err != nil {
			return nil, fmt.Errorf("dataset: object %d text: %w", i, err)
		}
	}
	return b.collection(), nil
}

// recordHead is what a record holds ahead of its text's bytes.
type recordHead struct {
	id      int64
	x, y, w float64
	tlen    uint64
}

// peekHead decodes the next record's head straight from the bytes br
// has buffered, and discards it. ok is false, and nothing is consumed,
// unless the whole head is buffered and well formed: readHead then
// reads it through br, filling the buffer as it goes, and reports what
// is wrong with it.
func peekHead(br *bufio.Reader) (h recordHead, ok bool) {
	buf, err := br.Peek(min(br.Buffered(), maxRecordHead))
	if err != nil {
		return h, false
	}
	id, n := binary.Varint(buf)
	if n <= 0 || len(buf) < n+3*8 {
		return h, false
	}
	tlen, m := binary.Uvarint(buf[n+3*8:])
	if m <= 0 {
		return h, false
	}
	h = recordHead{
		id:   id,
		x:    math.Float64frombits(binary.LittleEndian.Uint64(buf[n:])),
		y:    math.Float64frombits(binary.LittleEndian.Uint64(buf[n+8:])),
		w:    math.Float64frombits(binary.LittleEndian.Uint64(buf[n+16:])),
		tlen: tlen,
	}
	// The bytes are buffered, so discarding them cannot fail.
	_, _ = br.Discard(n + 3*8 + m) //geolint:errok
	return h, true
}

// readHead reads object i's head field by field, each float through
// buf, for a head that is not whole in br's buffer or is malformed;
// each error names the object and the field.
func readHead(br *bufio.Reader, i uint64, buf []byte) (recordHead, error) {
	readFloat := func() (float64, error) {
		if _, err := io.ReadFull(br, buf); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(buf)), nil
	}
	var h recordHead
	var err error
	if h.id, err = binary.ReadVarint(br); err != nil {
		return h, fmt.Errorf("dataset: object %d id: %w", i, err)
	}
	if h.x, err = readFloat(); err != nil {
		return h, fmt.Errorf("dataset: object %d x: %w", i, err)
	}
	if h.y, err = readFloat(); err != nil {
		return h, fmt.Errorf("dataset: object %d y: %w", i, err)
	}
	if h.w, err = readFloat(); err != nil {
		return h, fmt.Errorf("dataset: object %d weight: %w", i, err)
	}
	if h.tlen, err = binary.ReadUvarint(br); err != nil {
		return h, fmt.Errorf("dataset: object %d text length: %w", i, err)
	}
	return h, nil
}

// readText fills dst with the next len(dst) bytes of br: copied out of
// its buffer when they fit there, read through it otherwise (a text
// longer than the buffer, or one the stream ends inside).
func readText(br *bufio.Reader, dst []byte) error {
	if t, err := br.Peek(len(dst)); err == nil {
		copy(dst, t)
		_, err = br.Discard(len(dst))
		return err
	}
	_, err := io.ReadFull(br, dst)
	return err
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
