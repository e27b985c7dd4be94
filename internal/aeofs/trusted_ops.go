package aeofs

import (
	"fmt"
	"slices"
	"strings"

	"aeolia/internal/aeodriver"
	"aeolia/internal/sim"
)

// This file implements the file system trust layer's API (Table 5) with
// eager integrity checking (§7.3): every call validates the caller's
// permission and the operation's metadata invariants *before* mutating core
// state, inside the MPK gate.

// enter runs fn as trusted-entity code: through the process gate, charging
// the validation cost.
func (t *TrustLayer) enter(env *sim.Env, drv *aeodriver.Driver, fn func() error) error {
	var err error
	drv.Gate().Call(env, drv.Process().Thread, func() {
		env.Exec(costTrustedCheck)
		err = fn()
	})
	return err
}

func (t *TrustLayer) uid(drv *aeodriver.Driver) uint32 {
	return uint32(drv.Process().ID)
}

// QueryInode returns a copy of an inode (Table 5 ①).
func (t *TrustLayer) QueryInode(env *sim.Env, drv *aeodriver.Driver, ino uint64) (Inode, error) {
	var out Inode
	err := t.enter(env, drv, func() error {
		ti, err := t.inode(env, drv, ino)
		if err != nil {
			return err
		}
		ti.lock.RLock(env)
		defer ti.lock.RUnlock(env)
		if ti.ino.Type == TypeFree {
			return ErrNotExist
		}
		out = ti.ino
		return nil
	})
	return out, err
}

// QueryIndexPage returns the idx-th index page of a file: its data-block
// pointers and the next index block (Table 5 ②).
func (t *TrustLayer) QueryIndexPage(env *sim.Env, drv *aeodriver.Driver, ino uint64, idx int) (ptrs []uint64, next uint64, err error) {
	err = t.enter(env, drv, func() error {
		ti, err := t.inode(env, drv, ino)
		if err != nil {
			return err
		}
		ti.lock.RLock(env)
		defer ti.lock.RUnlock(env)
		if ti.ino.Type == TypeFree {
			return ErrNotExist
		}
		if !canRead(&ti.ino, t.uid(drv)) {
			return t.failCheck(ErrAccess)
		}
		blk := ti.ino.FirstIndex
		for i := 0; i < idx && blk != 0; i++ {
			mb, err := t.meta.get(env, drv, blk)
			if err != nil {
				return err
			}
			blk = le64(mb.data[PtrsPerIndex*8:])
		}
		if blk == 0 {
			return ErrRange
		}
		mb, err := t.meta.get(env, drv, blk)
		if err != nil {
			return err
		}
		for i := 0; i < PtrsPerIndex; i++ {
			p := le64(mb.data[i*8:])
			if p == 0 {
				break
			}
			ptrs = append(ptrs, p)
		}
		next = le64(mb.data[PtrsPerIndex*8:])
		return nil
	})
	return ptrs, next, err
}

// QueryFileBlocks returns a copy of the file's full data-block map — the
// practical bulk form of query_index_page the untrusted layer caches.
func (t *TrustLayer) QueryFileBlocks(env *sim.Env, drv *aeodriver.Driver, ino uint64) ([]uint64, error) {
	var out []uint64
	err := t.enter(env, drv, func() error {
		ti, err := t.inode(env, drv, ino)
		if err != nil {
			return err
		}
		ti.lock.Lock(env) // write: may load the block map
		defer ti.lock.Unlock(env)
		if ti.ino.Type == TypeFree {
			return ErrNotExist
		}
		if !canRead(&ti.ino, t.uid(drv)) {
			return t.failCheck(ErrAccess)
		}
		if err := t.loadBlocks(env, drv, ti); err != nil {
			return err
		}
		out = append(out, ti.blocks...)
		return nil
	})
	return out, err
}

// QueryDentryPage returns a copy of the idx-th dentry page of a directory
// (Table 5 ③).
func (t *TrustLayer) QueryDentryPage(env *sim.Env, drv *aeodriver.Driver, dirIno uint64, idx int) ([]byte, error) {
	var out []byte
	err := t.enter(env, drv, func() error {
		ti, err := t.inode(env, drv, dirIno)
		if err != nil {
			return err
		}
		ti.lock.Lock(env)
		defer ti.lock.Unlock(env)
		if ti.ino.Type != TypeDir {
			return ErrNotDir
		}
		if !canRead(&ti.ino, t.uid(drv)) {
			return t.failCheck(ErrAccess)
		}
		if err := t.loadBlocks(env, drv, ti); err != nil {
			return err
		}
		if idx < 0 || idx >= len(ti.blocks) {
			return ErrRange
		}
		mb, err := t.meta.get(env, drv, ti.blocks[idx])
		if err != nil {
			return err
		}
		out = make([]byte, BlockSize)
		copy(out, mb.data)
		return nil
	})
	return out, err
}

// loadDents populates a directory's name map from its data blocks. Caller
// holds ti.lock for writing.
func (t *TrustLayer) loadDents(env *sim.Env, drv *aeodriver.Driver, ti *tInode) error {
	if ti.dentsOK {
		return nil
	}
	if err := t.loadBlocks(env, drv, ti); err != nil {
		return err
	}
	ti.dents = make(map[string]uint64)
	ti.dentLoc = make(map[string]dentPos)
	ti.dentUsed = make([]int, len(ti.blocks))
	ti.dentFree = nil
	ti.parent = 0
	for bi, blk := range ti.blocks {
		env.Exec(costDirentScan)
		mb, err := t.meta.get(env, drv, blk)
		if err != nil {
			return err
		}
		end := 0
		walkDirentsRaw(mb.data, func(off int, ino uint64, entSize int, name string) bool {
			end = off + entSize
			if ino == 0 {
				ti.dentFree = append(ti.dentFree, dentSlot{bi, off, entSize})
				return true
			}
			switch name {
			case ".":
			case "..":
				ti.parent = ino
			default:
				ti.dents[name] = ino
				ti.dentLoc[name] = dentPos{bi, off}
			}
			return true
		})
		ti.dentUsed[bi] = end
	}
	ti.dentsOK = true
	return nil
}

// LookupDir resolves name within a directory (the untrusted layer's
// dcache-miss path).
func (t *TrustLayer) LookupDir(env *sim.Env, drv *aeodriver.Driver, dirIno uint64, name string) (uint64, error) {
	var out uint64
	err := t.enter(env, drv, func() error {
		ti, err := t.inode(env, drv, dirIno)
		if err != nil {
			return err
		}
		ti.lock.Lock(env)
		defer ti.lock.Unlock(env)
		if ti.ino.Type != TypeDir {
			return ErrNotDir
		}
		if !canRead(&ti.ino, t.uid(drv)) {
			return t.failCheck(ErrAccess)
		}
		if err := t.loadDents(env, drv, ti); err != nil {
			return err
		}
		switch name {
		case ".":
			out = dirIno
			return nil
		case "..":
			out = ti.parent
			if out == 0 {
				out = RootIno
			}
			return nil
		}
		ino, ok := ti.dents[name]
		if !ok {
			return ErrNotExist
		}
		out = ino
		return nil
	})
	return out, err
}

// ReadDirAll lists a directory, sorted by name.
func (t *TrustLayer) ReadDirAll(env *sim.Env, drv *aeodriver.Driver, dirIno uint64) ([]Dirent, error) {
	var out []Dirent
	err := t.enter(env, drv, func() error {
		ti, err := t.inode(env, drv, dirIno)
		if err != nil {
			return err
		}
		ti.lock.Lock(env)
		defer ti.lock.Unlock(env)
		if ti.ino.Type != TypeDir {
			return ErrNotDir
		}
		if !canRead(&ti.ino, t.uid(drv)) {
			return t.failCheck(ErrAccess)
		}
		if err := t.loadDents(env, drv, ti); err != nil {
			return err
		}
		for name, ino := range ti.dents {
			out = append(out, Dirent{Ino: ino, Name: name})
		}
		slices.SortFunc(out, func(a, b Dirent) int { return strings.Compare(a.Name, b.Name) })
		return nil
	})
	return out, err
}

// UpdateInode changes a validated inode field (Table 5 ④). Only the mode
// and mtime are settable; size and type changes must go through the
// dedicated operations (check 2).
func (t *TrustLayer) UpdateInode(env *sim.Env, drv *aeodriver.Driver, ino uint64, field string, value uint64) error {
	return t.enter(env, drv, func() error {
		ti, err := t.inode(env, drv, ino)
		if err != nil {
			return err
		}
		ti.lock.Lock(env)
		defer ti.lock.Unlock(env)
		if ti.ino.Type == TypeFree {
			return ErrNotExist
		}
		if !canWrite(&ti.ino, t.uid(drv)) {
			return t.failCheck(ErrAccess)
		}
		b := t.begin(env, drv)
		switch field {
		case "mode":
			const valid = ModeOwnerRead | ModeOwnerWrite | ModeWorldRead | ModeWorldWrite
			if uint32(value)&^valid != 0 {
				return t.failCheck(fmt.Errorf("%w: invalid mode %#o", ErrInvalid, value))
			}
			ti.ino.Mode = uint32(value)
		case "mtime":
			ti.ino.MTimeNS = int64(value)
		case "type", "size", "nlink", "blocks", "firstindex":
			return t.failCheck(fmt.Errorf("%w: field %q is not directly settable", ErrIntegrity, field))
		default:
			return t.failCheck(fmt.Errorf("%w: unknown inode field %q", ErrInvalid, field))
		}
		if err := t.storeInode(env, drv, ti, b); err != nil {
			return err
		}
		b.commit()
		return nil
	})
}

// AppendFile grows a file to newSize (Table 5 ⑦), allocating data blocks
// and granting the calling process write access to them. It returns the
// newly allocated block LBAs.
func (t *TrustLayer) AppendFile(env *sim.Env, drv *aeodriver.Driver, ino uint64, newSize uint64) ([]uint64, error) {
	return t.grow(env, drv, ino, newSize, "append_file cannot shrink (use truncate_file)", false)
}

// TruncateGrow extends a file to newSize with zeroes (the POSIX
// truncate-up semantics): it allocates blocks like AppendFile and zero-
// fills the grown byte range on the device with privileged writes, so
// stale contents of recycled blocks never leak to readers.
func (t *TrustLayer) TruncateGrow(env *sim.Env, drv *aeodriver.Driver, ino uint64, newSize uint64) ([]uint64, error) {
	return t.grow(env, drv, ino, newSize, "truncate_grow cannot shrink", true)
}

// grow is the checked-grow transaction behind AppendFile and TruncateGrow:
// under the inode lock, the type and write checks, then blocks to cover
// newSize, the inode stored and the transaction committed. With zero, the
// grown byte range is zero-filled on the device before the caller is
// granted the new blocks. shrink is the refusal's text when newSize is
// below the file's size.
func (t *TrustLayer) grow(env *sim.Env, drv *aeodriver.Driver, ino, newSize uint64, shrink string, zero bool) ([]uint64, error) {
	var added []uint64
	err := t.enter(env, drv, func() error {
		ti, err := t.inode(env, drv, ino)
		if err != nil {
			return err
		}
		ti.lock.Lock(env)
		defer ti.lock.Unlock(env)
		if ti.ino.Type != TypeRegular {
			if ti.ino.Type == TypeDir {
				return ErrIsDir
			}
			return ErrNotExist
		}
		if !canWrite(&ti.ino, t.uid(drv)) {
			return t.failCheck(ErrAccess)
		}
		if newSize < ti.ino.Size {
			return t.failCheck(fmt.Errorf("%w: %s", ErrIntegrity, shrink))
		}
		oldSize := ti.ino.Size
		need := (newSize + BlockSize - 1) / BlockSize
		b := t.begin(env, drv)
		if need > ti.ino.Blocks {
			added, err = t.growBlocks(env, drv, ti, need-ti.ino.Blocks, b)
			if err != nil {
				return err
			}
		}
		ti.ino.Size = newSize
		ti.ino.MTimeNS = env.Now().Nanoseconds()
		if err := t.storeInode(env, drv, ti, b); err != nil {
			return err
		}
		b.commit()
		t.Appends++
		t.noteWriter(env, ino, drv.Process().ID)
		if zero {
			if err := zeroGrown(env, drv, ti, oldSize, added); err != nil {
				return err
			}
		}
		// Grant the process access to its new data blocks.
		for _, blk := range added {
			if err := drv.GrantPerm(env, blk, aeodriver.PermRW); err != nil {
				return err
			}
		}
		return nil
	})
	return added, err
}

// zeroGrown zero-fills what a grow from oldSize exposed: the tail of the
// previously-last partial block and the added blocks, batching contiguous
// runs of up to 64 blocks.
func zeroGrown(env *sim.Env, drv *aeodriver.Driver, ti *tInode, oldSize uint64, added []uint64) error {
	if tail := oldSize % BlockSize; tail != 0 && oldSize/BlockSize < uint64(len(ti.blocks)) {
		blk := ti.blocks[oldSize/BlockSize]
		buf := make([]byte, BlockSize)
		if err := drv.ReadPriv(env, blk, 1, buf); err != nil {
			return err
		}
		for i := tail; i < BlockSize; i++ {
			buf[i] = 0
		}
		if err := drv.WritePriv(env, blk, 1, buf); err != nil {
			return err
		}
	}
	for i := 0; i < len(added); {
		j := i + 1
		for j < len(added) && added[j] == added[j-1]+1 && j-i < 64 {
			j++
		}
		if err := drv.WritePriv(env, added[i], uint32(j-i), make([]byte, (j-i)*BlockSize)); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// TruncateFile shrinks a file to newSize (Table 5 ⑥), freeing blocks and
// revoking the process's access to them.
func (t *TrustLayer) TruncateFile(env *sim.Env, drv *aeodriver.Driver, ino uint64, newSize uint64) error {
	return t.enter(env, drv, func() error {
		ti, err := t.inode(env, drv, ino)
		if err != nil {
			return err
		}
		ti.lock.Lock(env)
		defer ti.lock.Unlock(env)
		if ti.ino.Type != TypeRegular {
			if ti.ino.Type == TypeDir {
				return ErrIsDir
			}
			return ErrNotExist
		}
		if !canWrite(&ti.ino, t.uid(drv)) {
			return t.failCheck(ErrAccess)
		}
		if newSize > ti.ino.Size {
			return t.failCheck(fmt.Errorf("%w: truncate_file cannot grow (use append_file)", ErrIntegrity))
		}
		keep := (newSize + BlockSize - 1) / BlockSize
		b := t.begin(env, drv)
		if _, err := t.shrinkBlocks(env, drv, ti, keep, b); err != nil {
			return err
		}
		ti.ino.Size = newSize
		ti.ino.MTimeNS = env.Now().Nanoseconds()
		if err := t.storeInode(env, drv, ti, b); err != nil {
			return err
		}
		b.commit()
		t.Truncates++
		return nil
	})
}
