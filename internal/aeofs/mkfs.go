package aeofs

import (
	"fmt"

	"aeolia/internal/aeodriver"
	"aeolia/internal/sim"
)

// MkfsOptions parameterize formatting.
type MkfsOptions struct {
	// NumInodes (default: one per 8 data blocks).
	NumInodes uint64
	// NumJournals is the number of per-thread journal regions (default 64).
	NumJournals uint64
	// JournalBlocks is each region's size in blocks (default: ~1/8 of the
	// partition over NumJournals, within [minJournalBlocks, 1024]).
	JournalBlocks uint64
}

// minJournalBlocks is the smallest journal region Mkfs formats and Mount
// accepts: a forced commit of one Table 5 operation has to fit in it.
const minJournalBlocks = 64

// Mkfs formats the partition [start, start+blocks) through a privileged
// driver context and returns the superblock. It must be called from within
// the trusted gate (it writes core state with WritePriv).
func Mkfs(env *sim.Env, drv *aeodriver.Driver, start, blocks uint64, opt MkfsOptions) (Superblock, error) {
	if blocks < 4096 {
		return Superblock{}, fmt.Errorf("%w: partition too small (%d blocks)", ErrInvalid, blocks)
	}
	if opt.NumJournals == 0 {
		opt.NumJournals = 64
	}
	switch {
	case opt.JournalBlocks == 0:
		opt.JournalBlocks = min(max(blocks/8/opt.NumJournals, minJournalBlocks), 1024)
	case opt.JournalBlocks < minJournalBlocks:
		return Superblock{}, fmt.Errorf("%w: journal region of %d blocks (minimum %d)",
			ErrInvalid, opt.JournalBlocks, minJournalBlocks)
	}
	if opt.NumInodes == 0 {
		opt.NumInodes = blocks / 8
	}
	if opt.NumInodes < 64 {
		opt.NumInodes = 64
	}

	sb := Superblock{
		Magic:       Magic,
		BlockSize:   BlockSize,
		Start:       start,
		TotalBlocks: blocks,
		NumInodes:   opt.NumInodes,
		NumJournals: opt.NumJournals,
		JournalArea: opt.JournalBlocks,
	}
	cur := start + 1
	sb.InodeBmStart = cur
	sb.InodeBmBlocks = (opt.NumInodes + BlockSize*8 - 1) / (BlockSize * 8)
	cur += sb.InodeBmBlocks
	sb.BlockBmStart = cur
	sb.BlockBmBlocks = (blocks + BlockSize*8 - 1) / (BlockSize * 8)
	cur += sb.BlockBmBlocks
	sb.ITableStart = cur
	sb.ITableBlocks = (opt.NumInodes + InodesPerBlock - 1) / InodesPerBlock
	cur += sb.ITableBlocks
	sb.JournalStart = cur
	cur += opt.NumJournals * opt.JournalBlocks
	sb.DataStart = cur
	if sb.DataStart >= start+blocks {
		return Superblock{}, fmt.Errorf("%w: metadata exceeds partition", ErrNoSpace)
	}

	// Inode bitmap: inodes 0 (invalid) and 1 (root) used.
	ibm := newBitmap(opt.NumInodes)
	ibm.set(0)
	ibm.set(RootIno)
	ibm.free -= 2
	// Block bitmap: everything before DataStart is used. Bit i covers
	// absolute block start+i.
	bbm := newBitmap(blocks)
	for i := uint64(0); i < sb.DataStart-start; i++ {
		bbm.set(i)
		bbm.free--
	}

	buf := make([]byte, BlockSize)

	// Superblock.
	sb.encode(buf)
	if err := drv.WritePriv(env, start, 1, buf); err != nil {
		return sb, err
	}
	// Bitmaps.
	for i := uint64(0); i < sb.InodeBmBlocks; i++ {
		ibm.encodeBlock(i, buf)
		if err := drv.WritePriv(env, sb.InodeBmStart+i, 1, buf); err != nil {
			return sb, err
		}
	}
	for i := uint64(0); i < sb.BlockBmBlocks; i++ {
		bbm.encodeBlock(i, buf)
		if err := drv.WritePriv(env, sb.BlockBmStart+i, 1, buf); err != nil {
			return sb, err
		}
	}
	// Inode table: zero all blocks, then write the root inode.
	for i := range buf {
		buf[i] = 0
	}
	for i := uint64(0); i < sb.ITableBlocks; i++ {
		if err := drv.WritePriv(env, sb.ITableStart+i, 1, buf); err != nil {
			return sb, err
		}
	}
	root := Inode{
		Ino:  RootIno,
		Type: TypeDir,
		// The root is world-writable so every process sharing the
		// disk can create its own subtree; created subtrees default
		// to owner-writable.
		Mode:    ModeOwnerRead | ModeOwnerWrite | ModeWorldRead | ModeWorldWrite,
		Nlink:   2,
		Size:    0,
		MTimeNS: env.Now().Nanoseconds(),
	}
	root.encode(buf[RootIno%InodesPerBlock*InodeSize:])
	if err := drv.WritePriv(env, sb.ITableStart+RootIno/InodesPerBlock, 1, buf); err != nil {
		return sb, err
	}
	// Journal region headers.
	for i := range buf {
		buf[i] = 0
	}
	encodeRegionHeader(buf, 1, 0)
	for j := uint64(0); j < opt.NumJournals; j++ {
		if err := drv.WritePriv(env, sb.JournalStart+j*opt.JournalBlocks, 1, buf); err != nil {
			return sb, err
		}
	}
	if err := drv.Flush(env); err != nil {
		return sb, err
	}
	return sb, nil
}
