package tilecache

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// wireFixture is a cached entry of three members over a five-object
// collection, with a negative band, negative ids and header fields that
// take more than one varint byte.
func wireFixture() (*entry, []geodata.Object) {
	objs := make([]geodata.Object, 5)
	for i := range objs {
		objs[i] = geodata.Object{ID: 100 - 70*i, Loc: geo.Pt(0.1*float64(i), 0.9-0.2*float64(i)), Weight: 0.5 + float64(i)}
	}
	e := &entry{
		key:   Key{T: Tile{Z: 9, X: 300, Y: 17}, Band: -3, K: 200},
		born:  1 << 40,
		pos:   []int32{4, 0, 2},
		gains: []float64{7.5, 2.25, 0.125},
		score: 0.4375,
		count: 1234,
	}
	return e, objs
}

// encodeTileData writes d in the layout wire.go documents, canonical
// varints included: the test's own encoder, held to appendWire's bytes
// by TestDecodeTileReturnsTheEntry.
func encodeTileData(d *TileData) []byte {
	dst := []byte(wireMagic)
	dst = binary.AppendUvarint(dst, uint64(d.Tile.Z))
	dst = binary.AppendUvarint(dst, uint64(d.Tile.X))
	dst = binary.AppendUvarint(dst, uint64(d.Tile.Y))
	dst = binary.AppendVarint(dst, int64(d.Band))
	dst = binary.AppendUvarint(dst, uint64(d.K))
	dst = binary.AppendUvarint(dst, d.Version)
	dst = binary.AppendUvarint(dst, uint64(d.TileObjects))
	dst = binary.AppendUvarint(dst, uint64(len(d.Members)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.Score))
	for _, m := range d.Members {
		dst = binary.AppendUvarint(dst, uint64(m.Pos))
		dst = binary.AppendVarint(dst, int64(m.ID))
		for _, f := range []float32{float32(m.Loc.X), float32(m.Loc.Y), m.Weight, m.Gain} {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
		}
	}
	return dst
}

// sameTileData compares two decodes field by field, floats by their
// bits (a payload may carry NaNs).
func sameTileData(t *testing.T, got, want *TileData) {
	t.Helper()
	if got.Tile != want.Tile || got.Band != want.Band || got.K != want.K || got.Version != want.Version ||
		got.TileObjects != want.TileObjects || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
		t.Fatalf("header %+v, want %+v", got, want)
	}
	if len(got.Members) != len(want.Members) {
		t.Fatalf("%d members, want %d", len(got.Members), len(want.Members))
	}
	bits := func(m TileMember) [4]uint32 {
		return [4]uint32{
			math.Float32bits(float32(m.Loc.X)), math.Float32bits(float32(m.Loc.Y)),
			math.Float32bits(m.Weight), math.Float32bits(m.Gain),
		}
	}
	for i, g := range got.Members {
		w := want.Members[i]
		if g.Pos != w.Pos || g.ID != w.ID || bits(g) != bits(w) {
			t.Fatalf("member %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestDecodeTileReturnsTheEntry(t *testing.T) {
	e, objs := wireFixture()
	payload := appendWire(nil, e, objs)
	d, err := DecodeTile(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := &TileData{Tile: e.key.T, Band: e.key.Band, K: e.key.K, Version: e.born, TileObjects: e.count, Score: e.score}
	for i, p := range e.pos {
		o := &objs[p]
		want.Members = append(want.Members, TileMember{
			Pos: p, ID: o.ID,
			Loc:    geo.Pt(float64(float32(o.Loc.X)), float64(float32(o.Loc.Y))),
			Weight: float32(o.Weight), Gain: float32(e.gains[i]),
		})
	}
	sameTileData(t, d, want)
	if again := encodeTileData(d); !bytes.Equal(again, payload) {
		t.Fatalf("re-encoded payload differs from appendWire's:\n%x\n%x", again, payload)
	}
}

// wireHeader is a payload's bytes up to its first member, every uvarint
// field given in order: z, x, y, k, version, tileObjects, memberCount.
func wireHeader(band int64, fields [7]uint64) []byte {
	dst := []byte(wireMagic)
	for i, v := range fields {
		if i == 3 {
			dst = binary.AppendVarint(dst, band)
		}
		dst = binary.AppendUvarint(dst, v)
	}
	return binary.LittleEndian.AppendUint64(dst, 0)
}

// A payload decides how many members its decoder allocates for, so the
// count it claims is held to what its bytes can carry — before the
// allocation, not by running out of input after it.
func TestDecodeTileBoundsAllocationByInput(t *testing.T) {
	member := make([]byte, minMemberBytes) // pos 0, id 0, four zero floats
	for _, claim := range []uint64{2, 1 << 20, math.MaxUint64} {
		payload := append(wireHeader(0, [7]uint64{1, 0, 0, 8, 1, 9, claim}), member...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeTile(payload)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("a payload of one member claiming %d decoded", claim)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
			t.Fatalf("rejecting a %d-byte payload claiming %d members allocated %d bytes", len(payload), claim, grew)
		}
	}
	// The same body with an honest count decodes.
	d, err := DecodeTile(append(wireHeader(0, [7]uint64{1, 0, 0, 8, 1, 9, 1}), member...))
	if err != nil || len(d.Members) != 1 {
		t.Fatalf("one-member payload: %+v, %v", d, err)
	}
}

func TestDecodeTileRejectsInt32Overflow(t *testing.T) {
	ok := [7]uint64{3, 2, 1, 8, 1 << 50, 9, 0}
	if _, err := DecodeTile(wireHeader(-7, ok)); err != nil {
		t.Fatalf("in-range header rejected: %v", err)
	}
	for i, name := range []string{"z", "x", "y", "k", "", "tileObjects"} {
		if name == "" {
			continue // version is a uint64
		}
		bad := ok
		bad[i] = math.MaxInt32 + 1
		if _, err := DecodeTile(wireHeader(-7, bad)); err == nil {
			t.Errorf("%s = 2^31 decoded", name)
		}
	}
	for _, band := range []int64{math.MaxInt32 + 1, math.MinInt32 - 1} {
		if _, err := DecodeTile(wireHeader(band, ok)); err == nil {
			t.Errorf("band = %d decoded", band)
		}
	}
	one := ok
	one[6] = 1
	member := binary.AppendUvarint(nil, math.MaxInt32+1)
	member = append(member, make([]byte, minMemberBytes-1)...)
	if _, err := DecodeTile(append(wireHeader(-7, one), member...)); err == nil {
		t.Error("member position = 2^31 decoded")
	}
}

// FuzzDecodeTile: no input panics the decoder or makes it allocate for
// more members than the input holds, and whatever decodes survives a
// trip through the encoder (compared by field: varints need not be
// canonical, so the bytes may differ).
func FuzzDecodeTile(f *testing.F) {
	e, objs := wireFixture()
	payload := appendWire(nil, e, objs)
	for cut := len(payload); cut >= 0; cut -= 5 {
		f.Add(payload[:cut])
	}
	f.Add(wireHeader(0, [7]uint64{1, 0, 0, 8, 1, 9, 1 << 20}))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeTile(data)
		if err != nil {
			return
		}
		if cap(d.Members)*minMemberBytes > len(data) {
			t.Fatalf("%d bytes decoded into room for %d members", len(data), cap(d.Members))
		}
		again, err := DecodeTile(encodeTileData(d))
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		sameTileData(t, again, d)
	})
}
