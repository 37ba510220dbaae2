package tilecache

import (
	"encoding/binary"
	"fmt"
	"math"

	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// The tile wire format is a compact, CDN-frontable binary encoding of
// one materialized tile selection — what GET /tiles/{z}/{x}/{y} serves.
// Layout (all integers varint unless noted):
//
//	magic   "GST1" (4 bytes)
//	uvarint z, x, y
//	varint  band (zigzag; bandZero encodes θ = 0)
//	uvarint k, version, tileObjects, memberCount
//	8 bytes tile score (float64 bits, little endian)
//	per member, in selection order:
//	  uvarint position
//	  varint  id (zigzag)
//	  4 bytes x     (float32 bits, little endian)
//	  4 bytes y     (float32 bits, little endian)
//	  4 bytes weight(float32 bits, little endian)
//	  4 bytes gain  (float32 bits, little endian)
//
// Member coordinates and gains are downcast to float32 — display
// precision, half the payload. The content is fully determined by
// (tile, band, k, version), which is also what the ETag hashes, so the
// format is immutable-cacheable by any HTTP intermediary.

// wireMagic identifies the encoding; bump the trailing digit on any
// layout change.
const wireMagic = "GST1"

// minMemberBytes is the shortest a member can be on the wire: two
// one-byte varints and four 4-byte floats.
const minMemberBytes = 2 + 4*4

// TileData is the decoded form of one tile payload.
type TileData struct {
	Tile    Tile
	Band    int32
	K       int32
	Version uint64
	// TileObjects is the number of objects in the tile when the
	// selection was computed.
	TileObjects int32
	// Score is the tile-normalized selection score.
	Score   float64
	Members []TileMember
}

// TileMember is one selected object of a tile.
type TileMember struct {
	Pos    int32
	ID     int
	Loc    geo.Point
	Weight float32
	Gain   float32
}

// appendWire encodes one cached entry against its collection objects,
// appending to dst (which may be nil) and returning the extended
// buffer — the response-buffer-only allocation profile of the /tiles
// endpoint.
func appendWire(dst []byte, e *entry, objs []geodata.Object) []byte {
	dst = append(dst, wireMagic...)
	dst = binary.AppendUvarint(dst, uint64(e.key.T.Z))
	dst = binary.AppendUvarint(dst, uint64(e.key.T.X))
	dst = binary.AppendUvarint(dst, uint64(e.key.T.Y))
	dst = binary.AppendVarint(dst, int64(e.key.Band))
	dst = binary.AppendUvarint(dst, uint64(e.key.K))
	dst = binary.AppendUvarint(dst, e.born)
	dst = binary.AppendUvarint(dst, uint64(e.count))
	dst = binary.AppendUvarint(dst, uint64(len(e.pos)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.score))
	for i, p := range e.pos {
		o := &objs[p]
		dst = binary.AppendUvarint(dst, uint64(p))
		dst = binary.AppendVarint(dst, int64(o.ID))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(o.Loc.X)))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(o.Loc.Y)))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(o.Weight)))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(e.gains[i])))
	}
	return dst
}

// DecodeTile parses a wire payload produced by the /tiles endpoint.
func DecodeTile(data []byte) (*TileData, error) {
	if len(data) < len(wireMagic) || string(data[:len(wireMagic)]) != wireMagic {
		return nil, fmt.Errorf("tilecache: bad tile payload magic")
	}
	r := wireReader{buf: data[len(wireMagic):]}
	d := &TileData{}
	d.Tile.Z = r.uint31()
	d.Tile.X = r.uint31()
	d.Tile.Y = r.uint31()
	d.Band = r.int32()
	d.K = r.uint31()
	d.Version = r.uvarint()
	d.TileObjects = r.uint31()
	n := r.uvarint()
	d.Score = math.Float64frombits(r.u64())
	if r.err != nil {
		return nil, r.err
	}
	// The claimed count sizes an allocation, so hold it to what the
	// remaining bytes can carry.
	if n > uint64(len(r.buf)/minMemberBytes) {
		return nil, fmt.Errorf("tilecache: tile payload claims %d members in %d bytes", n, len(r.buf))
	}
	d.Members = make([]TileMember, 0, n)
	for i := uint64(0); i < n; i++ {
		m := TileMember{
			Pos: r.uint31(),
			ID:  int(r.varint()),
		}
		m.Loc.X = float64(math.Float32frombits(r.u32()))
		m.Loc.Y = float64(math.Float32frombits(r.u32()))
		m.Weight = math.Float32frombits(r.u32())
		m.Gain = math.Float32frombits(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		d.Members = append(d.Members, m)
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("tilecache: %d trailing bytes in tile payload", len(r.buf))
	}
	return d, nil
}

// wireReader is a tiny error-latching decoder cursor.
type wireReader struct {
	buf []byte
	err error
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("tilecache: truncated tile payload")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// uint31 reads a uvarint destined for a non-negative int32 field.
func (r *wireReader) uint31() int32 {
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.err = fmt.Errorf("tilecache: tile payload field %d overflows int32", v)
	}
	return int32(v)
}

// int32 reads a varint destined for an int32 field.
func (r *wireReader) int32() int32 {
	v := r.varint()
	if int64(int32(v)) != v {
		r.err = fmt.Errorf("tilecache: tile payload field %d overflows int32", v)
	}
	return int32(v)
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("tilecache: truncated tile payload")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *wireReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 4 {
		r.err = fmt.Errorf("tilecache: truncated tile payload")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

func (r *wireReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = fmt.Errorf("tilecache: truncated tile payload")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}
