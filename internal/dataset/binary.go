package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/textsim"
)

// Binary snapshot format: a compact, stream-friendly encoding for large
// collections (CSV parsing dominates load time beyond ~10⁶ objects). It
// carries, besides every object's fields, what a load would otherwise
// derive from the texts: the vocabulary and each object's term counts,
// so a reader tokenizes nothing and looks up no term.
//
//	magic   "GSNP"          4 bytes
//	version u8              currently 2
//	terms   uvarint         the vocabulary, in id order:
//	  term  uvarint length (≥ 1) + bytes
//	count   uvarint
//	per object:
//	  id     varint (zigzag)
//	  x,y    float64 LE
//	  weight float64 LE
//	  terms  uvarint n, then n terms ascending by id, each
//	           uvarint (id − previous id − 1)<<1 | (count > 1)
//	             (the first term's previous id counts as −1)
//	           uvarint count − 2, present only when that low bit is 1
//	  text   uvarint length + bytes
//
// WriteBinary tokenizes the texts into a fresh vocabulary in object
// order, exactly as Collection.Add would, so the vocabulary and vectors
// a load rebuilds (textsim.Arena.FromCounts, the tail of FromText) are
// bit for bit those of tokenizing the texts at load. Most terms occur
// once and follow the previous id closely, so most take one byte. The
// encoding cannot spell a descending id or a zero count; a reader
// checks that every id is below the vocabulary's length. Version 1
// (texts only) is refused: regenerate such a snapshot with datagen.
const (
	binaryMagic   = "GSNP"
	binaryVersion = 2
	// maxBinaryText guards against corrupt length prefixes, of texts
	// and of terms alike; it also bounds a term's count.
	maxBinaryText = 1 << 20
	// minBinaryRecord is the smallest encoded object: a one-byte id,
	// the three floats, a one-byte count of terms and a one-byte text
	// length. A stream with b unread bytes holds at most
	// b/minBinaryRecord objects, whatever its count says, so a corrupt
	// count cannot force a large array. The vocabulary and the term
	// counts are never sized from the stream: they grow as their bytes
	// are read.
	minBinaryRecord = 1 + 3*8 + 1 + 1
	// unsizedStart caps the array a stream of unknown length starts
	// with; past it the array grows by append.
	unsizedStart = 1 << 12
	// readBuffer is the reader's buffer: a record's head is decoded
	// straight from it when it is whole there.
	readBuffer = 1 << 16
)

// WriteBinary streams the collection to w in the snapshot format. It
// tokenizes every text twice: once to build the vocabulary the header
// carries, once more to write each object's counts against it.
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
	vocab := textsim.NewVocabulary()
	var counts []textsim.Count
	for i := range col.Objects {
		o := &col.Objects[i]
		if len(o.Text) > maxBinaryText {
			// readBinary refuses such a length, so writing it would
			// produce a snapshot nothing can load.
			return fmt.Errorf("dataset: object %d text length %d exceeds limit %d", i, len(o.Text), maxBinaryText)
		}
		counts = textsim.Counts(counts[:0], vocab, o.Text)
	}
	if err := putUvarint(uint64(vocab.Len())); err != nil {
		return fmt.Errorf("dataset: writing vocabulary size: %w", err)
	}
	for id := 0; id < vocab.Len(); id++ {
		term := vocab.Term(id)
		if err := putUvarint(uint64(len(term))); err != nil {
			return fmt.Errorf("dataset: term %d length: %w", id, err)
		}
		if _, err := bw.WriteString(term); err != nil {
			return fmt.Errorf("dataset: term %d: %w", id, err)
		}
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
		// Every term is known by now, so this interns nothing.
		counts = textsim.Counts(counts[:0], vocab, o.Text)
		if err := putUvarint(uint64(len(counts))); err != nil {
			return fmt.Errorf("dataset: object %d term count: %w", i, err)
		}
		prev := int32(-1)
		for _, c := range counts {
			gap := uint64(c.ID-prev-1) << 1
			if c.N > 1 {
				gap |= 1
			}
			if err := putUvarint(gap); err != nil {
				return fmt.Errorf("dataset: object %d term id: %w", i, err)
			}
			if c.N > 1 {
				if err := putUvarint(uint64(c.N - 2)); err != nil {
					return fmt.Errorf("dataset: object %d term count: %w", i, err)
				}
			}
			prev = c.ID
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
// stream has avail unread bytes (-1: unknown): the vocabulary from its
// stored terms, each term vector from its record's stored counts.
// ReadAuto calls it once it has seen the magic. When the stream's
// length is known (an in-memory reader, a regular file), the objects
// array is allocated once, exactly the header's count long.
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
		return nil, fmt.Errorf("dataset: unsupported snapshot version %d (this build reads version %d; regenerate the snapshot with datagen)", version, binaryVersion)
	}
	vocab := textsim.NewVocabulary()
	if err := readVocabulary(br, vocab); err != nil {
		return nil, err
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
	b.col.Vocab, b.counted = vocab, true
	buf := make([]byte, 8) // the floats of every head readHead reads
	var counts []textsim.Count
	for i := uint64(0); i < count; i++ {
		h, ok := peekHead(br, counts[:0], vocab.Len())
		if !ok {
			if h, err = readHead(br, i, buf, counts[:0], vocab.Len()); err != nil {
				return nil, err
			}
		}
		if h.tlen > maxBinaryText {
			return nil, fmt.Errorf("dataset: object %d text length %d exceeds limit", i, h.tlen)
		}
		if err := readText(br, b.add(int(h.id), geo.Pt(h.x, h.y), h.w, int(h.tlen))); err != nil {
			return nil, fmt.Errorf("dataset: object %d text: %w", i, err)
		}
		b.vec(h.counts)
		counts = h.counts
	}
	return b.collection(), nil
}

// readVocabulary interns the snapshot's terms into the empty vocab, in
// id order. A term that is empty, longer than maxBinaryText or a repeat
// of an earlier one is an error: the ids the records refer to would
// not be the ones its position gives it.
func readVocabulary(br *bufio.Reader, vocab *textsim.Vocabulary) error {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("dataset: reading vocabulary size: %w", err)
	}
	var long []byte // a term longer than br's buffer
	for id := uint64(0); id < n; id++ {
		l, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("dataset: term %d length: %w", id, err)
		}
		if l == 0 || l > maxBinaryText {
			return fmt.Errorf("dataset: term %d length %d out of range", id, l)
		}
		term, err := br.Peek(int(l))
		if err == nil {
			_, err = br.Discard(int(l))
		} else {
			long = slices.Grow(long[:0], int(l))[:l]
			_, err = io.ReadFull(br, long)
			term = long
		}
		if err != nil {
			return fmt.Errorf("dataset: term %d: %w", id, err)
		}
		if got, added := vocab.Intern(term); !added {
			return fmt.Errorf("dataset: term %d %q repeats term %d", id, term, got)
		}
	}
	return nil
}

// recordHead is what a record holds ahead of its text's bytes.
type recordHead struct {
	id      int64
	x, y, w float64
	counts  []textsim.Count
	tlen    uint64
}

// peekHead decodes the next record's head straight from the bytes br
// has buffered, its term counts appended to counts, and discards it. ok
// is false, and nothing is consumed, unless the whole head is buffered
// and well formed against a vocabulary of nvocab terms: readHead then
// reads it through br, filling the buffer as it goes, and reports what
// is wrong with it.
func peekHead(br *bufio.Reader, counts []textsim.Count, nvocab int) (h recordHead, ok bool) {
	buf, err := br.Peek(br.Buffered())
	if err != nil {
		return h, false
	}
	id, k := binary.Varint(buf)
	if k <= 0 || len(buf) < k+3*8 {
		return h, false
	}
	h.id = id
	h.x = math.Float64frombits(binary.LittleEndian.Uint64(buf[k:]))
	h.y = math.Float64frombits(binary.LittleEndian.Uint64(buf[k+8:]))
	h.w = math.Float64frombits(binary.LittleEndian.Uint64(buf[k+16:]))
	k += 3 * 8
	n, m := binary.Uvarint(buf[k:])
	if m <= 0 || n > uint64(nvocab) {
		return h, false
	}
	k += m
	next := uint64(0) // the smallest id the next term may have
	for j := uint64(0); j < n; j++ {
		gap, m := binary.Uvarint(buf[k:])
		if m <= 0 || gap>>1 >= uint64(nvocab)-next {
			return h, false
		}
		k += m
		c := uint64(1)
		if gap&1 != 0 {
			if c, m = binary.Uvarint(buf[k:]); m <= 0 || c >= maxBinaryText-1 {
				return h, false
			}
			k += m
			c += 2
		}
		next += gap >> 1
		counts = append(counts, textsim.Count{ID: int32(next), N: int32(c)})
		next++
	}
	if h.tlen, m = binary.Uvarint(buf[k:]); m <= 0 {
		return h, false
	}
	h.counts = counts
	// The bytes are buffered, so discarding them cannot fail.
	_, _ = br.Discard(k + m) //geolint:errok
	return h, true
}

// readHead reads object i's head field by field, each float through
// buf and its term counts appended to counts, for a head that is not
// whole in br's buffer or is malformed; each error names the object and
// the field.
func readHead(br *bufio.Reader, i uint64, buf []byte, counts []textsim.Count, nvocab int) (recordHead, error) {
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
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return h, fmt.Errorf("dataset: object %d term count: %w", i, err)
	}
	if n > uint64(nvocab) {
		return h, fmt.Errorf("dataset: object %d has %d terms, the vocabulary %d", i, n, nvocab)
	}
	next := uint64(0)
	for j := uint64(0); j < n; j++ {
		gap, err := binary.ReadUvarint(br)
		if err != nil {
			return h, fmt.Errorf("dataset: object %d term %d id: %w", i, j, err)
		}
		if gap>>1 >= uint64(nvocab)-next {
			return h, fmt.Errorf("dataset: object %d term %d id beyond the vocabulary of %d", i, j, nvocab)
		}
		c := uint64(1)
		if gap&1 != 0 {
			if c, err = binary.ReadUvarint(br); err != nil {
				return h, fmt.Errorf("dataset: object %d term %d count: %w", i, j, err)
			}
			if c >= maxBinaryText-1 {
				return h, fmt.Errorf("dataset: object %d term %d count %d exceeds limit", i, j, c+2)
			}
			c += 2
		}
		next += gap >> 1
		counts = append(counts, textsim.Count{ID: int32(next), N: int32(c)})
		next++
	}
	h.counts = counts
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
	br := bufio.NewReaderSize(r, readBuffer)
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
