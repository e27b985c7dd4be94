package aeofs

import (
	"fmt"

	"aeolia/internal/aeodriver"
	"aeolia/internal/sim"
)

// FsckReport summarizes a consistency check of an AeoFS volume.
type FsckReport struct {
	Inodes      int // live inodes found by tree walk
	Dirs        int
	Files       int
	UsedBlocks  int // data+index blocks referenced by live inodes
	Problems    []string
	OrphanInos  []uint64 // allocated in the bitmap but unreachable
	LeakedBlks  int      // allocated in the bitmap but unreferenced
	BadPointers int
}

// Clean reports whether the volume is consistent.
func (r *FsckReport) Clean() bool {
	return len(r.Problems) == 0 && len(r.OrphanInos) == 0 && r.LeakedBlks == 0 && r.BadPointers == 0
}

func (r *FsckReport) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck walks the directory tree from the root, verifying that:
//   - the tree is connected and acyclic ("." and ".." consistent),
//   - every referenced inode is allocated, typed, and in range,
//   - directory entry names are legal and unique,
//   - index chains are well-formed and block pointers stay in the data area,
//   - nlink counts match the tree,
//   - the allocation bitmaps exactly cover the reachable metadata.
//
// It runs through the trusted layer's privileged reads and must be called
// from a task context.
func Fsck(env *sim.Env, drv *aeodriver.Driver, start uint64) (*FsckReport, error) {
	r := &FsckReport{}
	var err error
	drv.Gate().Call(env, drv.Process().Thread, func() {
		err = fsckRun(env, drv, start, r)
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

func fsckRun(env *sim.Env, drv *aeodriver.Driver, start uint64, r *FsckReport) error {
	sb, err := readSuperblock(env, drv, start)
	if err != nil {
		return err
	}

	// Replay committed-but-uncheckpointed journal batches into an
	// overlay, as a real fsck does before checking.
	jr, err := scanJournal(func(blk uint64, cnt uint32, buf []byte) error {
		return drv.ReadPriv(env, blk, cnt, buf)
	}, &sb)
	if err != nil {
		return err
	}
	overlay := jr.images

	readBlock := func(blk uint64) ([]byte, error) {
		if img, ok := overlay[blk]; ok {
			out := make([]byte, BlockSize)
			copy(out, img)
			return out, nil
		}
		b := make([]byte, BlockSize)
		err := drv.ReadPriv(env, blk, 1, b)
		return b, err
	}
	readInode := func(ino uint64) (Inode, error) {
		blk := sb.ITableStart + ino/InodesPerBlock
		b, err := readBlock(blk)
		if err != nil {
			return Inode{}, err
		}
		return decodeInode(b[(ino%InodesPerBlock)*InodeSize:]), nil
	}

	inDataArea := func(blk uint64) bool {
		return blk >= sb.DataStart && blk < sb.Start+sb.TotalBlocks
	}

	// blockRefs counts references to each data-area block.
	blockRefs := map[uint64]int{}
	// walk the index chain of an inode, returning its data blocks.
	fileBlocks := func(in Inode) ([]uint64, error) {
		var blocks []uint64
		idx := in.FirstIndex
		remaining := in.Blocks
		hops := 0
		for idx != 0 && remaining > 0 {
			if !inDataArea(idx) {
				r.BadPointers++
				r.problem("inode %d: index block %d outside data area", in.Ino, idx)
				return blocks, nil
			}
			blockRefs[idx]++
			if hops++; hops > 1<<20 {
				r.problem("inode %d: index chain too long (cycle?)", in.Ino)
				return blocks, nil
			}
			b, err := readBlock(idx)
			if err != nil {
				return nil, err
			}
			n := uint64(PtrsPerIndex)
			if remaining < n {
				n = remaining
			}
			for i := uint64(0); i < n; i++ {
				p := le64(b[i*8:])
				if !inDataArea(p) {
					r.BadPointers++
					r.problem("inode %d: data block %d outside data area", in.Ino, p)
					continue
				}
				blockRefs[p]++
				blocks = append(blocks, p)
			}
			remaining -= n
			idx = le64(b[PtrsPerIndex*8:])
		}
		if remaining > 0 {
			r.problem("inode %d: index chain short by %d blocks", in.Ino, remaining)
		}
		return blocks, nil
	}

	// Breadth-first walk from the root.
	type dirWork struct {
		ino    uint64
		parent uint64
	}
	seen := map[uint64]bool{}
	nlinkWant := map[uint64]uint32{}
	queue := []dirWork{{RootIno, RootIno}}
	seen[RootIno] = true
	nlinkWant[RootIno] = 2

	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		in, err := readInode(w.ino)
		if err != nil {
			return err
		}
		if in.Type != TypeDir {
			r.problem("dir walk reached non-directory inode %d (%v)", w.ino, in.Type)
			continue
		}
		r.Dirs++
		r.Inodes++
		blocks, err := fileBlocks(in)
		if err != nil {
			return err
		}
		names := map[string]bool{}
		sawDot, sawDotDot := false, false
		for _, blk := range blocks {
			b, err := readBlock(blk)
			if err != nil {
				return err
			}
			walkDirents(b, func(off int, ino uint64, name string) bool {
				switch name {
				case ".":
					sawDot = true
					if ino != w.ino {
						r.problem("dir %d: '.' points to %d", w.ino, ino)
					}
					return true
				case "..":
					sawDotDot = true
					if ino != w.parent {
						r.problem("dir %d: '..' points to %d, want %d", w.ino, ino, w.parent)
					}
					return true
				}
				if err := ValidateName(name); err != nil {
					r.problem("dir %d: illegal name %q", w.ino, name)
					return true
				}
				if names[name] {
					r.problem("dir %d: duplicate name %q", w.ino, name)
					return true
				}
				names[name] = true
				if ino == 0 || ino >= sb.NumInodes {
					r.problem("dir %d: entry %q has invalid ino %d", w.ino, name, ino)
					return true
				}
				child, err := readInode(ino)
				if err != nil {
					r.problem("dir %d: entry %q: read inode: %v", w.ino, name, err)
					return true
				}
				switch child.Type {
				case TypeDir:
					if seen[ino] {
						r.problem("dir %d reachable twice (cycle or hard-linked dir): entry %q", ino, name)
						return true
					}
					seen[ino] = true
					nlinkWant[ino] = 2
					nlinkWant[w.ino]++
					queue = append(queue, dirWork{ino, w.ino})
				case TypeRegular:
					if !seen[ino] {
						seen[ino] = true
						r.Files++
						r.Inodes++
						if _, err := fileBlocks(child); err != nil {
							r.problem("file %d: %v", ino, err)
						}
					}
					nlinkWant[ino]++
				default:
					r.problem("dir %d: entry %q points to inode %d of type %v", w.ino, name, ino, child.Type)
				}
				return true
			})
		}
		if w.ino != RootIno && (!sawDot || !sawDotDot) {
			r.problem("dir %d missing '.' or '..'", w.ino)
		}
	}

	// Verify nlink counts.
	for ino, want := range nlinkWant {
		in, err := readInode(ino)
		if err != nil {
			return err
		}
		if in.Type == TypeDir && in.Nlink != want {
			r.problem("dir %d: nlink %d, want %d", ino, in.Nlink, want)
		}
	}

	// Cross-check the inode bitmap: every allocated inode must be
	// reachable (orphans pending deferred free are reported).
	for i := uint64(0); i < sb.InodeBmBlocks; i++ {
		b, err := readBlock(sb.InodeBmStart + i)
		if err != nil {
			return err
		}
		base := i * BlockSize * 8
		for bit := uint64(0); bit < BlockSize*8 && base+bit < sb.NumInodes; bit++ {
			set := b[bit/8]&(1<<(bit%8)) != 0
			ino := base + bit
			if ino == 0 {
				continue
			}
			if set && !seen[ino] {
				r.OrphanInos = append(r.OrphanInos, ino)
			}
			if !set && seen[ino] {
				r.problem("inode %d reachable but free in bitmap", ino)
			}
		}
	}

	// Cross-check the block bitmap over the data area.
	for i := uint64(0); i < sb.BlockBmBlocks; i++ {
		b, err := readBlock(sb.BlockBmStart + i)
		if err != nil {
			return err
		}
		base := i * BlockSize * 8
		for bit := uint64(0); bit < BlockSize*8 && base+bit < sb.TotalBlocks; bit++ {
			blk := sb.Start + base + bit
			if blk < sb.DataStart {
				continue
			}
			set := b[bit/8]&(1<<(bit%8)) != 0
			refs := blockRefs[blk]
			if refs > 1 {
				r.problem("block %d referenced %d times", blk, refs)
			}
			if set && refs == 0 {
				r.LeakedBlks++
			}
			if !set && refs > 0 {
				r.problem("block %d referenced but free in bitmap", blk)
			}
		}
	}
	r.UsedBlocks = len(blockRefs)
	return nil
}
