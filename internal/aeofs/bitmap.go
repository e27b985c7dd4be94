package aeofs

import (
	"encoding/binary"

	"aeolia/internal/sim"
)

// bitmap is a disk-backed allocation bitmap with sharded virtual locks: the
// trusted layer keeps it in memory, journals the dirtied bitmap blocks, and
// checkpoints them to disk on commit. Sharding keeps allocator contention
// low on multicore runs (one lock per bitmap block's worth of bits).
type bitmap struct {
	words []uint64
	n     uint64
	// hint is the next-fit rotor per shard.
	shards []bitmapShard
	// bitsPerShard aligns shards to whole bitmap blocks (BlockSize*8 bits).
	bitsPerShard uint64
	// free tracks the number of clear bits.
	free uint64
	// freeLock guards free (approximate reads are fine; updates exact).
	freeLock sim.Mutex
}

type bitmapShard struct {
	lock sim.Mutex
	hint uint64
}

const bitmapShardBits = BlockSize * 8

func newBitmap(n uint64) *bitmap {
	nshards := (n + bitmapShardBits - 1) / bitmapShardBits
	if nshards == 0 {
		nshards = 1
	}
	return &bitmap{
		words:        make([]uint64, (n+63)/64),
		n:            n,
		shards:       make([]bitmapShard, nshards),
		bitsPerShard: bitmapShardBits,
		free:         n,
	}
}

func (bm *bitmap) test(i uint64) bool {
	return bm.words[i/64]&(1<<(i%64)) != 0
}

func (bm *bitmap) set(i uint64) {
	bm.words[i/64] |= 1 << (i % 64)
}

func (bm *bitmap) clear(i uint64) {
	bm.words[i/64] &^= 1 << (i % 64)
}

// shardRange returns shard s's bit range.
func (bm *bitmap) shardRange(s int) (lo, hi uint64) {
	lo = uint64(s) * bm.bitsPerShard
	hi = lo + bm.bitsPerShard
	if hi > bm.n {
		hi = bm.n
	}
	return lo, hi
}

// alloc finds and sets a clear bit, preferring the shard of the hint
// (locality), spilling to other shards when full. Returns the bit and true,
// or false when the bitmap is exhausted. env may be nil in recovery paths
// (single-threaded).
func (bm *bitmap) alloc(env *sim.Env, near uint64) (uint64, bool) {
	if bm.n == 0 {
		return 0, false
	}
	start := int(near / bm.bitsPerShard)
	if start >= len(bm.shards) {
		start = 0
	}
	for off := 0; off < len(bm.shards); off++ {
		s := (start + off) % len(bm.shards)
		if bit, ok := bm.allocInShard(env, s); ok {
			bm.lockFree(env)
			bm.free--
			bm.unlockFree(env)
			return bit, true
		}
	}
	return 0, false
}

func (bm *bitmap) allocInShard(env *sim.Env, s int) (uint64, bool) {
	sh := &bm.shards[s]
	if env != nil {
		sh.lock.Lock(env)
		defer sh.lock.Unlock(env)
	}
	lo, hi := bm.shardRange(s)
	if sh.hint < lo || sh.hint >= hi {
		sh.hint = lo
	}
	// Next-fit scan from the rotor.
	for pass := 0; pass < 2; pass++ {
		from, to := sh.hint, hi
		if pass == 1 {
			from, to = lo, sh.hint
		}
		for i := from; i < to; i++ {
			if !bm.test(i) {
				bm.set(i)
				sh.hint = i + 1
				return i, true
			}
		}
	}
	return 0, false
}

// release clears a bit.
func (bm *bitmap) release(env *sim.Env, i uint64) {
	s := int(i / bm.bitsPerShard)
	if s >= len(bm.shards) {
		s = len(bm.shards) - 1
	}
	sh := &bm.shards[s]
	if env != nil {
		sh.lock.Lock(env)
	}
	wasSet := bm.test(i)
	bm.clear(i)
	if env != nil {
		sh.lock.Unlock(env)
	}
	if wasSet {
		bm.lockFree(env)
		bm.free++
		bm.unlockFree(env)
	}
}

func (bm *bitmap) lockFree(env *sim.Env) {
	if env != nil {
		bm.freeLock.Lock(env)
	}
}

func (bm *bitmap) unlockFree(env *sim.Env) {
	if env != nil {
		bm.freeLock.Unlock(env)
	}
}

// Free returns the number of clear bits.
func (bm *bitmap) Free() uint64 { return bm.free }

// loadFrom initializes the in-memory words from on-disk bitmap blocks.
func (bm *bitmap) loadFrom(blocks [][]byte) {
	idx := 0
	for _, b := range blocks {
		for off := 0; off+8 <= len(b) && idx < len(bm.words); off += 8 {
			var w uint64
			for k := 7; k >= 0; k-- {
				w = w<<8 | uint64(b[off+k])
			}
			bm.words[idx] = w
			idx++
		}
	}
	// Recount free bits.
	free := uint64(0)
	for i := uint64(0); i < bm.n; i++ {
		if !bm.test(i) {
			free++
		}
	}
	bm.free = free
}

// encodeBlock serializes bitmap block bi (covering bits
// [bi*BlockSize*8, ...)) into a BlockSize buffer, a little-endian word at a
// time. Every byte of out is written: words past the bitmap's end encode as
// zero.
func (bm *bitmap) encodeBlock(bi uint64, out []byte) {
	out = out[:BlockSize]
	lo := min(bi*(BlockSize/8), uint64(len(bm.words)))
	hi := min(lo+BlockSize/8, uint64(len(bm.words)))
	for w, v := range bm.words[lo:hi] {
		binary.LittleEndian.PutUint64(out[w*8:], v)
	}
	clear(out[(hi-lo)*8:])
}

// blockOf returns which bitmap block covers bit i.
func (bm *bitmap) blockOf(i uint64) uint64 { return i / (BlockSize * 8) }
