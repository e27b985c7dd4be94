// Package aeofs implements AeoFS, the paper's POSIX-like library file
// system (§7): a Trio-style split into shared on-disk core state with a
// simple fixed layout (superblock, bitmaps, inode table, per-thread journal
// regions, data blocks — Figure 9) maintained by a trusted layer with eager
// integrity checking (Table 5), and per-process auxiliary state (page
// cache, dentry cache, inode cache, fd tables) maintained by the untrusted
// layer, with ordered-mode physical redo journaling for crash consistency.
package aeofs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// BlockSize is the file system block size in bytes (one device LBA).
const BlockSize = 4096

// Magic identifies an AeoFS superblock.
const Magic = 0xAE0F5001

// RootIno is the root directory's inode number.
const RootIno = 1

// MaxNameLen bounds directory entry names.
const MaxNameLen = 255

// InodeSize is the on-disk inode record size.
const InodeSize = 128

// InodesPerBlock is how many inodes fit a block.
const InodesPerBlock = BlockSize / InodeSize

// PtrsPerIndex is the number of data-block pointers per index block; the
// final slot links to the next index block (§7.2).
const PtrsPerIndex = BlockSize/8 - 1

// FileType is an inode's type.
type FileType uint32

// Inode types. The trusted layer rejects everything else (§7.3 check 2:
// "the file type must be either a directory or a regular file").
const (
	TypeFree FileType = iota
	TypeRegular
	TypeDir
)

func (t FileType) String() string {
	switch t {
	case TypeFree:
		return "free"
	case TypeRegular:
		return "regular"
	case TypeDir:
		return "dir"
	default:
		return fmt.Sprintf("type(%d)", uint32(t))
	}
}

// Mode bits (a compact owner/world rwx subset).
const (
	ModeOwnerRead   uint32 = 0o400
	ModeOwnerWrite  uint32 = 0o200
	ModeWorldRead   uint32 = 0o004
	ModeWorldWrite  uint32 = 0o002
	ModeDefaultFile        = ModeOwnerRead | ModeOwnerWrite | ModeWorldRead
	ModeDefaultDir         = ModeOwnerRead | ModeOwnerWrite | ModeWorldRead
)

// Inode is the on-disk inode record (decoded).
type Inode struct {
	Ino        uint64
	Type       FileType
	Mode       uint32
	Nlink      uint32
	Owner      uint32
	Size       uint64
	Blocks     uint64 // allocated data blocks
	FirstIndex uint64 // first index block (0 = none)
	MTimeNS    int64
}

// encode writes the inode into a 128-byte record.
func (in *Inode) encode(b []byte) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], in.Ino)
	le.PutUint32(b[8:], uint32(in.Type))
	le.PutUint32(b[12:], in.Mode)
	le.PutUint32(b[16:], in.Nlink)
	le.PutUint32(b[20:], in.Owner)
	le.PutUint64(b[24:], in.Size)
	le.PutUint64(b[32:], in.Blocks)
	le.PutUint64(b[40:], in.FirstIndex)
	le.PutUint64(b[48:], uint64(in.MTimeNS))
	for i := 56; i < InodeSize; i++ {
		b[i] = 0
	}
}

// decodeInode parses a 128-byte record.
func decodeInode(b []byte) Inode {
	le := binary.LittleEndian
	return Inode{
		Ino:        le.Uint64(b[0:]),
		Type:       FileType(le.Uint32(b[8:])),
		Mode:       le.Uint32(b[12:]),
		Nlink:      le.Uint32(b[16:]),
		Owner:      le.Uint32(b[20:]),
		Size:       le.Uint64(b[24:]),
		Blocks:     le.Uint64(b[32:]),
		FirstIndex: le.Uint64(b[40:]),
		MTimeNS:    int64(le.Uint64(b[48:])),
	}
}

// Superblock is the decoded block-0 record. All block numbers are absolute
// device LBAs; Start is the partition's first block (where the superblock
// itself lives).
type Superblock struct {
	Magic         uint32
	BlockSize     uint32
	Start         uint64
	TotalBlocks   uint64
	NumInodes     uint64
	InodeBmStart  uint64
	InodeBmBlocks uint64
	BlockBmStart  uint64
	BlockBmBlocks uint64
	ITableStart   uint64
	ITableBlocks  uint64
	JournalStart  uint64
	JournalArea   uint64 // blocks per per-thread journal region
	NumJournals   uint64
	DataStart     uint64
}

func (sb *Superblock) encode(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], sb.Magic)
	le.PutUint32(b[4:], sb.BlockSize)
	le.PutUint64(b[8:], sb.TotalBlocks)
	le.PutUint64(b[16:], sb.NumInodes)
	le.PutUint64(b[24:], sb.InodeBmStart)
	le.PutUint64(b[32:], sb.InodeBmBlocks)
	le.PutUint64(b[40:], sb.BlockBmStart)
	le.PutUint64(b[48:], sb.BlockBmBlocks)
	le.PutUint64(b[56:], sb.ITableStart)
	le.PutUint64(b[64:], sb.ITableBlocks)
	le.PutUint64(b[72:], sb.JournalStart)
	le.PutUint64(b[80:], sb.JournalArea)
	le.PutUint64(b[88:], sb.NumJournals)
	le.PutUint64(b[96:], sb.DataStart)
	le.PutUint64(b[104:], sb.Start)
}

func decodeSuperblock(b []byte) (Superblock, error) {
	le := binary.LittleEndian
	sb := Superblock{
		Magic:         le.Uint32(b[0:]),
		BlockSize:     le.Uint32(b[4:]),
		TotalBlocks:   le.Uint64(b[8:]),
		NumInodes:     le.Uint64(b[16:]),
		InodeBmStart:  le.Uint64(b[24:]),
		InodeBmBlocks: le.Uint64(b[32:]),
		BlockBmStart:  le.Uint64(b[40:]),
		BlockBmBlocks: le.Uint64(b[48:]),
		ITableStart:   le.Uint64(b[56:]),
		ITableBlocks:  le.Uint64(b[64:]),
		JournalStart:  le.Uint64(b[72:]),
		JournalArea:   le.Uint64(b[80:]),
		NumJournals:   le.Uint64(b[88:]),
		DataStart:     le.Uint64(b[96:]),
		Start:         le.Uint64(b[104:]),
	}
	if sb.Magic != Magic {
		return sb, errors.New("aeofs: bad superblock magic")
	}
	if sb.BlockSize != BlockSize {
		return sb, fmt.Errorf("aeofs: unsupported block size %d", sb.BlockSize)
	}
	if sb.JournalArea < minJournalBlocks {
		return sb, fmt.Errorf("%w: journal region of %d blocks (minimum %d)",
			ErrCorrupt, sb.JournalArea, minJournalBlocks)
	}
	return sb, nil
}

// Dirent is a decoded directory entry: inode number, name, and the on-disk
// record size (§7.2: "each entry contains the file's inode number, the file
// name, name length, and the entry size").
type Dirent struct {
	Ino  uint64
	Name string
}

// direntSize returns the on-disk record size for a name.
func direntSize(name string) int {
	// ino(8) + nameLen(2) + entSize(2) + name, padded to 4 bytes.
	n := 12 + len(name)
	return (n + 3) &^ 3
}

// encodeDirent writes a dirent record; returns bytes written.
func encodeDirent(b []byte, ino uint64, name string) int {
	le := binary.LittleEndian
	sz := direntSize(name)
	le.PutUint64(b[0:], ino)
	le.PutUint16(b[8:], uint16(len(name)))
	le.PutUint16(b[10:], uint16(sz))
	copy(b[12:], name)
	for i := 12 + len(name); i < sz; i++ {
		b[i] = 0
	}
	return sz
}

// walkDirentsRaw iterates all dirent records in a block, including
// tombstones (ino 0), exposing each record's size. fn returns false to
// stop.
func walkDirentsRaw(b []byte, fn func(off int, ino uint64, entSize int, name string) bool) {
	le := binary.LittleEndian
	off := 0
	for off+12 <= len(b) {
		ino := le.Uint64(b[off:])
		nameLen := int(le.Uint16(b[off+8:]))
		entSize := int(le.Uint16(b[off+10:]))
		if entSize < 12 || off+entSize > len(b) {
			return
		}
		name := ""
		if nameLen > 0 && nameLen <= MaxNameLen && off+12+nameLen <= len(b) {
			name = string(b[off+12 : off+12+nameLen])
		}
		if !fn(off, ino, entSize, name) {
			return
		}
		off += entSize
	}
}

// walkDirents iterates the dirents packed in a directory data block,
// calling fn(offset, ino, name); fn returns false to stop. Records with
// ino 0 are tombstones and are skipped (but still walked over).
func walkDirents(b []byte, fn func(off int, ino uint64, name string) bool) {
	le := binary.LittleEndian
	off := 0
	for off+12 <= len(b) {
		ino := le.Uint64(b[off:])
		nameLen := int(le.Uint16(b[off+8:]))
		entSize := int(le.Uint16(b[off+10:]))
		if entSize < 12 || off+entSize > len(b) {
			return // end of packed records
		}
		if ino != 0 && nameLen > 0 && nameLen <= MaxNameLen && off+12+nameLen <= len(b) {
			name := string(b[off+12 : off+12+nameLen])
			if !fn(off, ino, name) {
				return
			}
		}
		off += entSize
	}
}

// ValidateName enforces the §7.3 naming rules (check 3): non-empty, within
// length bounds, no '/', no NUL, and not the reserved "." / "..".
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty name", ErrInvalid)
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("%w: name too long (%d)", ErrInvalid, len(name))
	}
	if name == "." || name == ".." {
		return fmt.Errorf("%w: reserved name %q", ErrInvalid, name)
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return fmt.Errorf("%w: illegal character in name %q", ErrInvalid, name)
		}
	}
	return nil
}
