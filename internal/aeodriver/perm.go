package aeodriver

import "fmt"

// Perm is a per-block access permission pair.
type Perm uint8

// Block permissions.
const (
	PermNone  Perm = 0
	PermRead  Perm = 1
	PermWrite Perm = 2
	PermRW    Perm = PermRead | PermWrite
)

func (p Perm) String() string {
	switch p {
	case PermNone:
		return "-"
	case PermRead:
		return "r"
	case PermWrite:
		return "w"
	case PermRW:
		return "rw"
	default:
		return fmt.Sprintf("perm(%d)", uint8(p))
	}
}

// PermTable is the in-memory bitmap recording, for each block, the read and
// write access permissions of the current process (§4.3). It lives in the
// trusted entities' protection domain; only trusted code reaches it through
// the driver's API surface.
type PermTable struct {
	bits    []uint64 // 2 bits per block
	nblocks uint64
}

// NewPermTable creates a table for n blocks, all PermNone.
func NewPermTable(n uint64) *PermTable {
	return &PermTable{
		bits:    make([]uint64, (n*2+63)/64),
		nblocks: n,
	}
}

// Get returns block blk's permission.
func (pt *PermTable) Get(blk uint64) Perm {
	if blk >= pt.nblocks {
		return PermNone
	}
	word, sh := blk/32, (blk%32)*2
	return Perm(pt.bits[word] >> sh & 3)
}

// Set assigns block blk's permission.
func (pt *PermTable) Set(blk uint64, p Perm) {
	if blk >= pt.nblocks {
		return
	}
	word, sh := blk/32, (blk%32)*2
	pt.bits[word] = pt.bits[word]&^(3<<sh) | uint64(p&3)<<sh
}

// SetRange assigns [blk, blk+n) the permission.
func (pt *PermTable) SetRange(blk, n uint64, p Perm) {
	for i := uint64(0); i < n; i++ {
		pt.Set(blk+i, p)
	}
}

// Allows reports whether every block of [lba, lba+n) permits the access.
func (pt *PermTable) Allows(lba, n uint64, write bool) bool {
	if lba+n > pt.nblocks || n == 0 {
		return false
	}
	need := PermRead
	if write {
		need = PermWrite
	}
	for i := uint64(0); i < n; i++ {
		if pt.Get(lba+i)&need == 0 {
			return false
		}
	}
	return true
}
