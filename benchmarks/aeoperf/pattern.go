package main

import "encoding/binary"

// Payload pattern. Every 4 KiB unit the benchmark writes is a pure function
// of (seed, address space, unit address, write generation), so any read can
// be checked without keeping a copy: word 0 is a mixed key and word i adds
// i times an odd constant, which makes a misplaced, stale or torn unit fail.

const unit = 4096

const patStride = 0x9e3779b97f4a7c15

func patKey(seed uint64, space, addr uint64, gen uint32) uint64 {
	return mix64(seed ^ mix64(space<<40^addr) ^ uint64(gen)<<32)
}

// fillUnit writes the pattern for key into b.
func fillUnit(b []byte, key uint64) {
	w := key
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], w)
		w += patStride
	}
}

// checkUnit reports whether b holds the pattern for key.
func checkUnit(b []byte, key uint64) bool {
	w := key
	for i := 0; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != w {
			return false
		}
		w += patStride
	}
	return true
}

// region tracks the write generation of every unit of one address space
// (a block span, or the files of a mount). A unit has one writer. The
// writer raises pending before the write call and committed after it
// returns, so a concurrent reader must see a generation in
// [committed at its start, pending at its end]; with no write in flight
// that window is one value and the check is exact.
type region struct {
	seed, space        uint64
	committed, pending []uint32
}

func newRegion(seed, space uint64, units int) *region {
	return &region{seed: seed, space: space,
		committed: make([]uint32, units), pending: make([]uint32, units)}
}

// fill writes the next generation of units [first, first+len(b)/unit) into b
// and marks them pending; commit after the write returns.
func (r *region) fill(b []byte, first int) {
	for i := 0; i*unit < len(b); i++ {
		u := first + i
		r.pending[u] = r.committed[u] + 1
		fillUnit(b[i*unit:(i+1)*unit], patKey(r.seed, r.space, uint64(u), r.pending[u]))
	}
}

func (r *region) commit(first, n int) {
	for u := first; u < first+n; u++ {
		r.committed[u] = r.pending[u]
	}
}

// floor snapshots the committed generations a read starting now must at
// least reflect.
func (r *region) floor(dst []uint32, first, n int) []uint32 {
	return append(dst[:0], r.committed[first:first+n]...)
}

// verify checks a completed read of units [first, ...) against the window
// [floor, pending] and returns the number of bad units.
func (r *region) verify(b []byte, first int, floor []uint32) int {
	bad := 0
	for i := 0; i*unit < len(b); i++ {
		u := first + i
		ok := false
		for g := floor[i]; g <= r.pending[u] && !ok; g++ {
			ok = checkUnit(b[i*unit:(i+1)*unit], patKey(r.seed, r.space, uint64(u), g))
		}
		if !ok {
			bad++
		}
	}
	return bad
}
