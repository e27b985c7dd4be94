package aeofs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// encodeBlockBytewise is encodeBlock as it was written first, a byte at a
// time: the reference the word-at-a-time encoder must match.
func encodeBlockBytewise(bm *bitmap, bi uint64, out []byte) {
	wordStart := bi * (BlockSize / 8)
	for w := uint64(0); w < BlockSize/8; w++ {
		var v uint64
		if wordStart+w < uint64(len(bm.words)) {
			v = bm.words[wordStart+w]
		}
		for k := 0; k < 8; k++ {
			out[w*8+uint64(k)] = byte(v >> (8 * k))
		}
	}
}

// TestEncodeBlockMatchesBytewise: for bitmaps of any length — a partial last
// block, a block past the end — and any bits, encodeBlock writes the bytes
// the byte loop did, over every byte of a dirty buffer.
func TestEncodeBlockMatchesBytewise(t *testing.T) {
	f := func(seed int64, nbits uint32, bi uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bm := newBitmap(uint64(nbits % (3 * bitmapShardBits)))
		for i := range bm.words {
			bm.words[i] = rng.Uint64()
		}
		blk := uint64(bi % 4)
		got, want := make([]byte, BlockSize), make([]byte, BlockSize)
		rng.Read(got)
		rng.Read(want)
		bm.encodeBlock(blk, got)
		encodeBlockBytewise(bm, blk, want)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
