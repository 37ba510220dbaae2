package dataset

import (
	"geosel/internal/geo"
	"geosel/internal/geodata"
	"geosel/internal/textsim"
)

// textChunk is the length of a text chunk in bytes; a text longer than
// that gets a chunk of its own length.
const textChunk = 1 << 16

// builder is the bulk load behind every reader and Generate. It keeps
// the texts of the objects added since the last chunk was sealed back
// to back in one buffer; sealing copies the buffer into one string,
// slices each object's Text out of it and builds its Vec, in order,
// with the words taken from one textsim.Arena. A load therefore
// allocates per chunk rather than per object, and interns terms in the
// order Collection.Add would. A text never straddles two chunks, and a
// chunk lives as long as any object that points into it.
//
// The snapshot reader's builder is counted: its texts are not
// tokenized, and the reader builds each Vec from the record's stored
// term counts through vec as it adds the object.
type builder struct {
	col     *geodata.Collection
	words   textsim.Arena
	counted bool
	text    []byte // the texts of objects first, first+1, … back to back
	ends    []int  // ends[k] is where object first+k's text ends in text
	first   int
}

// newBuilder starts a collection whose objects array has room for size
// objects; it grows past them by append.
func newBuilder(size int) *builder {
	col := geodata.NewCollection()
	col.Objects = make([]geodata.Object, 0, size)
	return &builder{col: col}
}

// add appends an object whose text is n bytes long and returns those n
// bytes, for the caller to fill before its next call.
func (b *builder) add(id int, loc geo.Point, weight float64, n int) []byte {
	if len(b.text)+n > cap(b.text) {
		b.seal()
		if n > cap(b.text) {
			b.text = make([]byte, 0, max(n, textChunk))
		}
	}
	start := len(b.text)
	b.text = b.text[:start+n]
	b.ends = append(b.ends, start+n)
	b.col.Objects = append(b.col.Objects, geodata.Object{ID: id, Loc: loc, Weight: weight})
	return b.text[start:]
}

// vec builds the Vec of the object added last from its term counts,
// for a counted builder.
func (b *builder) vec(counts []textsim.Count) {
	b.col.Objects[len(b.col.Objects)-1].Vec = b.words.FromCounts(counts)
}

// seal gives every object added since the last seal its Text (and,
// unless the builder is counted, its Vec), and empties the buffer for
// the next chunk.
func (b *builder) seal() {
	chunk := string(b.text)
	start := 0
	for k, end := range b.ends {
		o := &b.col.Objects[b.first+k]
		o.Text = chunk[start:end]
		if !b.counted {
			o.Vec = b.words.FromText(b.col.Vocab, o.Text)
		}
		start = end
	}
	b.first += len(b.ends)
	b.text, b.ends = b.text[:0], b.ends[:0]
}

// collection seals the last chunk and returns the collection, its
// objects array exactly as long as the objects added.
func (b *builder) collection() *geodata.Collection {
	b.seal()
	if objs := b.col.Objects; cap(objs) != len(objs) {
		b.col.Objects = append(make([]geodata.Object, 0, len(objs)), objs...)
	}
	return b.col
}
