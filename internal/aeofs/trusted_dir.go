package aeofs

import (
	"fmt"

	"aeolia/internal/aeodriver"
	"aeolia/internal/sim"
)

// Directory mutation operations of the trust layer (Table 5 ⑧-⑩), with the
// §7.3 eager checks: valid names, no duplicates, and a directory hierarchy
// that remains a connected tree without dangling files or cycles.

// addDirentLocked writes a dirent into the directory's data blocks,
// reusing a tombstone slot when one fits, appending otherwise (allocating a
// fresh directory block when needed). Caller holds dir.lock for writing and
// has loaded dents.
func (t *TrustLayer) addDirentLocked(env *sim.Env, drv *aeodriver.Driver, dir *tInode, name string, ino uint64, b *txnBuilder) error {
	need := direntSize(name)
	// First fit in the tombstone list.
	for i, slot := range dir.dentFree {
		if slot.size >= need {
			blk := dir.blocks[slot.blkIdx]
			if err := t.meta.update(env, drv, blk, b, func(data []byte) {
				encodeDirentSized(data[slot.off:], ino, name, slot.size)
			}); err != nil {
				return err
			}
			dir.dentFree = append(dir.dentFree[:i], dir.dentFree[i+1:]...)
			dir.dents[name] = ino
			dir.dentLoc[name] = dentPos{slot.blkIdx, slot.off}
			return nil
		}
	}
	// Append to the first block with tail room.
	for bi := range dir.blocks {
		if dir.dentUsed[bi]+need <= BlockSize {
			off := dir.dentUsed[bi]
			blk := dir.blocks[bi]
			if err := t.meta.update(env, drv, blk, b, func(data []byte) {
				encodeDirent(data[off:], ino, name)
			}); err != nil {
				return err
			}
			dir.dentUsed[bi] += need
			dir.dents[name] = ino
			dir.dentLoc[name] = dentPos{bi, off}
			if sz := uint64(dir.dentUsed[bi]) + uint64(bi)*BlockSize; sz > dir.ino.Size {
				dir.ino.Size = sz
			}
			return nil
		}
	}
	// Grow the directory by one data block.
	added, err := t.growBlocks(env, drv, dir, 1, b)
	if err != nil {
		return err
	}
	blk := added[0]
	zero := make([]byte, BlockSize)
	t.meta.install(env, blk, zero)
	if err := t.meta.update(env, drv, blk, b, func(data []byte) {
		encodeDirent(data, ino, name)
	}); err != nil {
		return err
	}
	dir.dentUsed = append(dir.dentUsed, need)
	bi := len(dir.blocks) - 1
	dir.dents[name] = ino
	dir.dentLoc[name] = dentPos{bi, 0}
	dir.ino.Size = uint64(bi)*BlockSize + uint64(need)
	return nil
}

// encodeDirentSized writes a dirent that occupies an existing slot of the
// given size (>= direntSize(name)).
func encodeDirentSized(b []byte, ino uint64, name string, slotSize int) {
	encodeDirent(b, ino, name)
	// Preserve the slot's full extent so the record chain stays intact.
	b[10] = byte(slotSize)
	b[11] = byte(slotSize >> 8)
	for i := direntSize(name); i < slotSize; i++ {
		b[i] = 0
	}
}

// removeDirentLocked tombstones name's record. Caller holds dir.lock for
// writing and has loaded dents.
func (t *TrustLayer) removeDirentLocked(env *sim.Env, drv *aeodriver.Driver, dir *tInode, name string, b *txnBuilder) error {
	pos, ok := dir.dentLoc[name]
	if !ok {
		return ErrNotExist
	}
	blk := dir.blocks[pos.blkIdx]
	var slotSize int
	if err := t.meta.update(env, drv, blk, b, func(data []byte) {
		// Zero the ino field: tombstone. Keep entSize for the chain.
		slotSize = int(data[pos.off+10]) | int(data[pos.off+11])<<8
		for i := 0; i < 8; i++ {
			data[pos.off+i] = 0
		}
	}); err != nil {
		return err
	}
	delete(dir.dents, name)
	delete(dir.dentLoc, name)
	dir.dentFree = append(dir.dentFree, dentSlot{pos.blkIdx, pos.off, slotSize})
	return nil
}

// CreateInDir creates a file or directory entry (Table 5 ⑧). Eager checks:
// caller may write the directory; the name is legal (no '/', not "."/"..",
// length-bounded) and unique within the directory; the type is regular or
// dir.
func (t *TrustLayer) CreateInDir(env *sim.Env, drv *aeodriver.Driver, dirIno uint64, name string, ftype FileType) (Inode, error) {
	var out Inode
	err := t.enter(env, drv, func() error {
		if err := ValidateName(name); err != nil {
			return t.failCheck(err)
		}
		if ftype != TypeRegular && ftype != TypeDir {
			return t.failCheck(fmt.Errorf("%w: create of type %v", ErrIntegrity, ftype))
		}
		dir, err := t.inode(env, drv, dirIno)
		if err != nil {
			return err
		}
		dir.lock.Lock(env)
		defer dir.lock.Unlock(env)
		if dir.ino.Type != TypeDir {
			return ErrNotDir
		}
		if !canWrite(&dir.ino, t.uid(drv)) {
			return t.failCheck(ErrAccess)
		}
		if err := t.loadDents(env, drv, dir); err != nil {
			return err
		}
		if _, exists := dir.dents[name]; exists {
			return t.failCheck(ErrExist)
		}

		b := t.begin(env, drv)
		ino, err := t.allocInode(env, b)
		if err != nil {
			return err
		}
		child, err := t.inode(env, drv, ino)
		if err != nil {
			return err
		}
		child.lock.Lock(env)
		defer child.lock.Unlock(env)
		child.ino = Inode{
			Ino:     ino,
			Type:    ftype,
			Owner:   t.uid(drv),
			Nlink:   1,
			MTimeNS: env.Now().Nanoseconds(),
		}
		child.blocks, child.indexChain, child.blocksOK = nil, nil, true
		child.dents, child.dentsOK = nil, false
		if ftype == TypeDir {
			child.ino.Mode = ModeDefaultDir
			child.ino.Nlink = 2
			// Seed "." and "..".
			child.dents = make(map[string]uint64)
			child.dentLoc = make(map[string]dentPos)
			child.dentUsed = nil
			child.dentFree = nil
			child.parent = dirIno
			child.dentsOK = true
			added, err := t.growBlocks(env, drv, child, 1, b)
			if err != nil {
				return err
			}
			zero := make([]byte, BlockSize)
			t.meta.install(env, added[0], zero)
			if err := t.meta.update(env, drv, added[0], b, func(data []byte) {
				n := encodeDirent(data, ino, ".")
				encodeDirent(data[n:], dirIno, "..")
			}); err != nil {
				return err
			}
			child.dentUsed = []int{direntSize(".") + direntSize("..")}
			child.ino.Size = uint64(direntSize(".") + direntSize(".."))
			dir.ino.Nlink++ // the child's ".."
		} else {
			child.ino.Mode = ModeDefaultFile
		}
		if err := t.storeInode(env, drv, child, b); err != nil {
			return err
		}
		if err := t.addDirentLocked(env, drv, dir, name, ino, b); err != nil {
			return err
		}
		dir.ino.MTimeNS = env.Now().Nanoseconds()
		if err := t.storeInode(env, drv, dir, b); err != nil {
			return err
		}
		b.commit()
		t.Creates++
		t.noteWriter(env, dirIno, drv.Process().ID)
		out = child.ino
		return nil
	})
	return out, err
}

// RemoveFromDir unlinks name from a directory (Table 5 ⑨). Eager checks:
// write permission; the entry exists; rmdir only removes empty directories
// and never the root; unlink never removes a directory.
func (t *TrustLayer) RemoveFromDir(env *sim.Env, drv *aeodriver.Driver, dirIno uint64, name string, rmdir bool) error {
	return t.enter(env, drv, func() error {
		if err := ValidateName(name); err != nil {
			return t.failCheck(err)
		}
		dir, err := t.inode(env, drv, dirIno)
		if err != nil {
			return err
		}
		dir.lock.Lock(env)
		defer dir.lock.Unlock(env)
		if dir.ino.Type != TypeDir {
			return ErrNotDir
		}
		if !canWrite(&dir.ino, t.uid(drv)) {
			return t.failCheck(ErrAccess)
		}
		if err := t.loadDents(env, drv, dir); err != nil {
			return err
		}
		childIno, ok := dir.dents[name]
		if !ok {
			return ErrNotExist
		}
		child, err := t.inode(env, drv, childIno)
		if err != nil {
			return err
		}
		child.lock.Lock(env)
		defer child.lock.Unlock(env)

		if rmdir {
			if child.ino.Type != TypeDir {
				return ErrNotDir
			}
			if childIno == RootIno {
				return t.failCheck(fmt.Errorf("%w: cannot remove the root", ErrIntegrity))
			}
			if err := t.loadDents(env, drv, child); err != nil {
				return err
			}
			if len(child.dents) != 0 {
				return ErrNotEmpty
			}
		} else if child.ino.Type == TypeDir {
			return ErrIsDir
		}

		b := t.begin(env, drv)
		if err := t.removeDirentLocked(env, drv, dir, name, b); err != nil {
			return err
		}
		dir.ino.MTimeNS = env.Now().Nanoseconds()
		if rmdir {
			dir.ino.Nlink-- // child's ".." goes away
		}
		if err := t.storeInode(env, drv, dir, b); err != nil {
			return err
		}

		if t.hasOpeners(env, childIno) && !rmdir {
			// POSIX unlink-while-open: defer the free to last close.
			t.markOrphan(env, childIno)
			child.ino.Nlink = 0
			if err := t.storeInode(env, drv, child, b); err != nil {
				return err
			}
			b.commit()
			t.Removes++
			return nil
		}

		if err := t.destroyInodeLocked(env, drv, child, b); err != nil {
			return err
		}
		b.commit()
		t.Removes++
		t.noteWriter(env, dirIno, drv.Process().ID)
		return nil
	})
}

// destroyInodeLocked frees an inode and all its blocks. Caller holds
// child.lock for writing.
func (t *TrustLayer) destroyInodeLocked(env *sim.Env, drv *aeodriver.Driver, child *tInode, b *txnBuilder) error {
	freed, err := t.shrinkBlocks(env, drv, child, 0, b)
	if err != nil {
		return err
	}
	ino := child.ino.Ino
	child.ino = Inode{Ino: ino, Type: TypeFree}
	if err := t.storeInode(env, drv, child, b); err != nil {
		return err
	}
	t.freeInode(env, ino, b)
	t.meta.drop(env, freed)
	t.dropInode(env, ino)
	return nil
}

// Rename moves/renames an entry (Table 5 ⑩). Eager checks: permissions on
// both directories; source exists; a replaced destination is type-
// compatible (and empty for directories); and moving a directory never
// disconnects the tree or forms a cycle — the destination directory must
// not be a descendant of the moved directory.
//
// replaced is the inode number of a destination entry the rename displaced
// (0 when the destination did not exist): the caller must drop any
// auxiliary state it keyed by that ino, because the number returns to the
// allocator and will be reused. A replaced file that is still open is
// orphaned (POSIX rename-over-open-file) and freed on its last close,
// exactly like unlink.
func (t *TrustLayer) Rename(env *sim.Env, drv *aeodriver.Driver, srcDir uint64, srcName string, dstDir uint64, dstName string) (replaced uint64, err error) {
	err = t.enter(env, drv, func() error {
		if err := ValidateName(srcName); err != nil {
			return t.failCheck(err)
		}
		if err := ValidateName(dstName); err != nil {
			return t.failCheck(err)
		}
		// Cross-directory renames serialize on a global mutex (as
		// Linux's s_vfs_rename_mutex) so ancestor walks are stable.
		cross := srcDir != dstDir
		if cross {
			t.renameMu.Lock(env)
			defer t.renameMu.Unlock(env)
		}
		sd, err := t.inode(env, drv, srcDir)
		if err != nil {
			return err
		}
		var dd *tInode
		if cross {
			dd, err = t.inode(env, drv, dstDir)
			if err != nil {
				return err
			}
			// Lock in ino order to avoid deadlock.
			first, second := sd, dd
			if dd.ino.Ino < sd.ino.Ino {
				first, second = dd, sd
			}
			first.lock.Lock(env)
			defer first.lock.Unlock(env)
			second.lock.Lock(env)
			defer second.lock.Unlock(env)
		} else {
			dd = sd
			sd.lock.Lock(env)
			defer sd.lock.Unlock(env)
		}
		uid := t.uid(drv)
		if sd.ino.Type != TypeDir || dd.ino.Type != TypeDir {
			return ErrNotDir
		}
		if !canWrite(&sd.ino, uid) || !canWrite(&dd.ino, uid) {
			return t.failCheck(ErrAccess)
		}
		if err := t.loadDents(env, drv, sd); err != nil {
			return err
		}
		if err := t.loadDents(env, drv, dd); err != nil {
			return err
		}
		moved, ok := sd.dents[srcName]
		if !ok {
			return ErrNotExist
		}
		mi, err := t.inode(env, drv, moved)
		if err != nil {
			return err
		}
		if srcDir == dstDir && srcName == dstName {
			return nil
		}

		// Cycle check: walk from dstDir to the root; hitting the moved
		// directory means the rename would detach a cycle (§7.3
		// check 4).
		if mi.ino.Type == TypeDir && cross {
			if moved == dstDir {
				return t.failCheck(ErrLoop)
			}
			anc := dd.parent
			for anc != 0 && anc != RootIno {
				if anc == moved {
					return t.failCheck(ErrLoop)
				}
				ai, err := t.inode(env, drv, anc)
				if err != nil {
					return err
				}
				anc = t.parentOf(env, drv, ai)
			}
			if anc == moved {
				return t.failCheck(ErrLoop)
			}
		}

		b := t.begin(env, drv)

		// A replaced destination must be compatible.
		if existing, ok := dd.dents[dstName]; ok {
			ei, err := t.inode(env, drv, existing)
			if err != nil {
				return err
			}
			ei.lock.Lock(env)
			if ei.ino.Type == TypeDir {
				if mi.ino.Type != TypeDir {
					ei.lock.Unlock(env)
					return t.failCheck(ErrIsDir)
				}
				if err := t.loadDents(env, drv, ei); err != nil {
					ei.lock.Unlock(env)
					return err
				}
				if len(ei.dents) != 0 {
					ei.lock.Unlock(env)
					return ErrNotEmpty
				}
				dd.ino.Nlink--
			} else if mi.ino.Type == TypeDir {
				ei.lock.Unlock(env)
				return t.failCheck(ErrNotDir)
			}
			if err := t.removeDirentLocked(env, drv, dd, dstName, b); err != nil {
				ei.lock.Unlock(env)
				return err
			}
			if t.hasOpeners(env, existing) && ei.ino.Type != TypeDir {
				// POSIX rename-over-open-file: defer the free to last
				// close, like unlink.
				t.markOrphan(env, existing)
				ei.ino.Nlink = 0
				if err := t.storeInode(env, drv, ei, b); err != nil {
					ei.lock.Unlock(env)
					return err
				}
			} else if err := t.destroyInodeLocked(env, drv, ei, b); err != nil {
				ei.lock.Unlock(env)
				return err
			}
			ei.lock.Unlock(env)
			replaced = existing
		}

		if err := t.removeDirentLocked(env, drv, sd, srcName, b); err != nil {
			return err
		}
		if err := t.addDirentLocked(env, drv, dd, dstName, moved, b); err != nil {
			return err
		}
		if mi.ino.Type == TypeDir && cross {
			// Update the moved directory's "..".
			mi.lock.Lock(env)
			if err := t.loadDents(env, drv, mi); err != nil {
				mi.lock.Unlock(env)
				return err
			}
			if err := t.rewriteDotDotLocked(env, drv, mi, dstDir, b); err != nil {
				mi.lock.Unlock(env)
				return err
			}
			mi.parent = dstDir
			mi.lock.Unlock(env)
			sd.ino.Nlink--
			dd.ino.Nlink++
		}
		sd.ino.MTimeNS = env.Now().Nanoseconds()
		dd.ino.MTimeNS = env.Now().Nanoseconds()
		if err := t.storeInode(env, drv, sd, b); err != nil {
			return err
		}
		if cross {
			if err := t.storeInode(env, drv, dd, b); err != nil {
				return err
			}
		}
		b.commit()
		t.Renames++
		t.noteWriter(env, srcDir, drv.Process().ID)
		t.noteWriter(env, dstDir, drv.Process().ID)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return replaced, nil
}

// parentOf returns a directory's parent ino, loading dents when needed.
func (t *TrustLayer) parentOf(env *sim.Env, drv *aeodriver.Driver, ti *tInode) uint64 {
	ti.lock.Lock(env)
	defer ti.lock.Unlock(env)
	if err := t.loadDents(env, drv, ti); err != nil {
		return 0
	}
	return ti.parent
}

// rewriteDotDotLocked points the directory's ".." record at newParent.
func (t *TrustLayer) rewriteDotDotLocked(env *sim.Env, drv *aeodriver.Driver, dir *tInode, newParent uint64, b *txnBuilder) error {
	if len(dir.blocks) == 0 {
		return fmt.Errorf("%w: directory %d has no data block", ErrCorrupt, dir.ino.Ino)
	}
	blk := dir.blocks[0]
	return t.meta.update(env, drv, blk, b, func(data []byte) {
		walkDirentsRaw(data, func(off int, ino uint64, entSize int, name string) bool {
			if name == ".." {
				putLE64(data[off:], newParent)
				return false
			}
			return true
		})
	})
}
