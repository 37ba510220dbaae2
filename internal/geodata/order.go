package geodata

import (
	"math/bits"
	"slices"
)

// Past bitmapOrderMin positions, SortPositions reads them back from a
// bitmap over their span instead of comparison-sorting them. On random
// positions out of 100 000 (2-vCPU x86 box) the two meet near 500:
// slices.Sort costs 4 µs at 200 positions, 26 µs at 1 000 and 580 µs
// at 6 000, the bitmap 8–12, 22 and 39 µs, most of it the 1 563-word
// span. bitmapSpanPerPos caps that span at a few words per position, so
// a few positions spread over a huge collection still sort.
const (
	bitmapOrderMin   = 512
	bitmapSpanPerPos = 4
)

// SortPositions puts distinct collection positions in ascending order,
// in place. It is the one order every View's Region answers in, so the
// same region stages the same objects in the same order whatever index
// found them. Repeated positions are not allowed.
func SortPositions(pos []int) {
	if len(pos) < bitmapOrderMin {
		slices.Sort(pos)
		return
	}
	lo, hi := pos[0], pos[0]
	for _, p := range pos[1:] {
		lo = min(lo, p)
		hi = max(hi, p)
	}
	n := (hi-lo)>>6 + 1
	if n > bitmapSpanPerPos*len(pos) {
		slices.Sort(pos)
		return
	}
	words := make([]uint64, n)
	for _, p := range pos {
		d := p - lo
		words[d>>6] |= 1 << (uint(d) & 63)
	}
	i := 0
	for w, word := range words {
		base := lo + w<<6
		for ; word != 0; word &= word - 1 {
			pos[i] = base + bits.TrailingZeros64(word)
			i++
		}
	}
}
