package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

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
// term vectors against a fresh vocabulary.
func ReadBinary(r io.Reader) (*geodata.Collection, error) {
	br := bufio.NewReader(r)
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
	readFloat := func() (float64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
	}
	col := geodata.NewCollection()
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
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	switch {
	case string(head) == binaryMagic:
		return ReadBinary(br)
	case len(head) > 0 && head[0] == '{':
		return ReadJSONL(br)
	default:
		return ReadCSV(br)
	}
}
