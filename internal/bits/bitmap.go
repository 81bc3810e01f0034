// Package bits provides compact bitmap types used for visited-vertex
// tracking in the BFS kernels and for the "occupied" flags of the sparse
// accumulator.
package bits

import "math/bits"

const wordBits = 64

// Bitmap is a fixed-size set of bits. It is not safe for concurrent
// mutation.
type Bitmap struct {
	words []uint64
	n     int64
}

// NewBitmap returns a bitmap capable of holding n bits, all clear.
func NewBitmap(n int64) *Bitmap {
	if n < 0 {
		panic("bits: negative bitmap size")
	}
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits the bitmap holds.
func (b *Bitmap) Len() int64 { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int64) {
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (b *Bitmap) Clear(i int64) {
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int64) bool {
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// TestAndSet sets bit i and reports whether it was previously clear.
func (b *Bitmap) TestAndSet(i int64) bool {
	w := i / wordBits
	mask := uint64(1) << uint(i%wordBits)
	old := b.words[w]
	b.words[w] = old | mask
	return old&mask == 0
}

// Reset clears all bits without reallocating.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Grown returns b reset if it holds exactly n bits, or a fresh clear
// bitmap of n bits otherwise: the arena-recycling policy shared by the
// BFS drivers' bottom-up scratch bitmaps.
func Grown(b *Bitmap, n int64) *Bitmap {
	if b == nil || b.Len() != n {
		return NewBitmap(n)
	}
	b.Reset()
	return b
}

// Words exposes the bitmap's backing word array, least-significant bit
// first. It aliases the bitmap's storage: collectives hand it around by
// reference, and readers must treat foreign word slices as read-only.
func (b *Bitmap) Words() []uint64 { return b.words }

// CopyFrom replaces the bitmap's contents with src, which must have the
// bitmap's word length.
func (b *Bitmap) CopyFrom(src []uint64) {
	if len(src) != len(b.words) {
		panic("bits: CopyFrom word-length mismatch")
	}
	copy(b.words, src)
}

// OrWords folds src into dst with bitwise OR, word by word: the
// partitioned exchanges assemble a word range of a larger bitmap with it
// (dst and src must have equal length).
func OrWords(dst, src []uint64) {
	if len(src) != len(dst) {
		panic("bits: OrWords length mismatch")
	}
	for i, w := range src {
		dst[i] |= w
	}
}

// ClearWords zeroes a word slice in place; used to recycle the touched
// word range of a scratch bitmap without paying a full Reset.
func ClearWords(ws []uint64) {
	clear(ws)
}

// GrownWords returns s cleared if it holds exactly n words, or a fresh
// zero slice of n words otherwise: the arena-recycling policy of the
// batched drivers' mask planes (the word-per-vertex analog of Grown).
func GrownWords(s []uint64, n int64) []uint64 {
	if int64(len(s)) != n {
		return make([]uint64, n)
	}
	clear(s)
	return s
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int64 {
	var c int64
	for _, w := range b.words {
		c += int64(bits.OnesCount64(w))
	}
	return c
}
