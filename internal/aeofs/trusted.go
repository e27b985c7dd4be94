package aeofs

import (
	"fmt"

	"aeolia/internal/aeodriver"
	"aeolia/internal/sim"
)

// TrustLayer maintains AeoFS's shared core state (§7.3): the superblock,
// allocation bitmaps, inode table, index and directory blocks, and the
// journals. It is a trusted entity: every mutation flows through the Table 5
// API, which performs eager integrity checks before touching core state. A
// single TrustLayer instance exists per formatted device; untrusted FS
// instances (one per process) call into it through their process's gate.
type TrustLayer struct {
	sb Superblock

	meta    *metaCache
	inodeBm *bitmap
	blockBm *bitmap

	icache [16]icacheShard

	regions      []*journalRegion
	regionByTask map[*sim.Task]*journalRegion
	regionLock   sim.Mutex
	nextRegion   int

	// syncMu serializes fsync commits ("locking every per-thread
	// journaling region", §7.4).
	syncMu sim.Mutex

	// openers tracks (ino -> process -> open count) for cross-process
	// sharing detection (§9.4 file-sharing cost); orphans are inodes
	// unlinked while open, freed at last close.
	openers     map[uint64]map[int]int
	orphans     map[uint64]bool
	lastWriter  map[uint64]int
	sharedIno   map[uint64]bool
	openersLock sim.Mutex

	// renameMu serializes cross-directory renames, like the kernel's
	// per-superblock rename mutex.
	renameMu sim.Mutex

	// Crash, if set, is consulted at every named crash point (see
	// CrashPoints); a non-nil return abandons the operation there,
	// simulating a crash. Production mounts leave it nil.
	Crash CrashFunc
	// crashed latches after the first fired crash: the simulated machine
	// stays down until a harness mounts a fresh TrustLayer.
	crashed bool

	// RecoveredTxns reports how many committed transactions mount-time
	// recovery replayed.
	RecoveredTxns int

	// commitSeq numbers the commits (one per Sync that wrote anything);
	// every batch header carries it and replay orders by it. committed
	// maps a block to the capture stamp of the newest image any commit
	// has written for it: a commit never writes an older one. Both are
	// guarded by syncMu.
	commitSeq uint64
	committed map[uint64]uint64

	// Lazy checkpointing state: the newest committed image of every
	// block journalled but not yet written in place.
	uncheckpointed map[uint64][]byte
	syncsSinceCkpt int

	// journalID names this instance's journal in trace events (allocated
	// from the tracer on first use; 0 = none yet).
	journalID uint32

	// Stats.
	Creates, Removes, Renames, Appends, Truncates, Syncs uint64
	Checkpoints                                          uint64
	ChecksFailed                                         uint64
	// Journal write economy. JournalImagesQueued counts the block images
	// transactions handed to the journal, JournalBlocksDistinct the
	// distinct blocks each commit found among them (summed over
	// commits), JournalBlocksWritten the images that went to the journal
	// areas. Queued/Written is the amplification the merge removes;
	// Written/Distinct is 1 when it removes all of it.
	JournalImagesQueued, JournalBlocksDistinct, JournalBlocksWritten uint64
}

type icacheShard struct {
	lock sim.RWMutex
	m    map[uint64]*tInode
}

// tInode is the trusted layer's cached inode state.
type tInode struct {
	lock sim.RWMutex
	ino  Inode

	// blocks is the file's data-block map (absolute LBAs), loaded
	// lazily from the index chain; indexChain lists the index blocks.
	blocks     []uint64
	indexChain []uint64
	blocksOK   bool

	// dents is the directory's name -> ino map (dirs only), loaded
	// lazily from the directory's data blocks, together with each
	// entry's on-disk position, the per-block append frontier, and the
	// free-slot (tombstone) list.
	dents    map[string]uint64
	dentLoc  map[string]dentPos
	dentUsed []int
	dentFree []dentSlot
	parent   uint64
	dentsOK  bool
}

// dentPos locates a live dirent: block index within the directory and byte
// offset within the block.
type dentPos struct {
	blkIdx int
	off    int
}

// dentSlot is a reusable tombstoned dirent slot.
type dentSlot struct {
	blkIdx int
	off    int
	size   int
}

// readSuperblock reads the superblock at start and validates it against the
// part of drv's partition that lies at or past start.
func readSuperblock(env *sim.Env, drv *aeodriver.Driver, start uint64) (Superblock, error) {
	buf := make([]byte, BlockSize)
	if err := drv.ReadPriv(env, start, 1, buf); err != nil {
		return Superblock{}, err
	}
	sb, err := decodeSuperblock(buf)
	if err != nil {
		return sb, err
	}
	if sb.Start != start {
		return sb, fmt.Errorf("%w: superblock Start = %d, read at %d", ErrCorrupt, sb.Start, start)
	}
	var avail uint64
	if part := drv.Process().Partition; start >= part.Start && start-part.Start < part.Blocks {
		avail = part.Blocks - (start - part.Start)
	}
	return sb, sb.validate(avail)
}

// Mount opens the trust layer over a formatted partition, running journal
// recovery first. Must be called inside the gate (privileged reads).
func Mount(env *sim.Env, drv *aeodriver.Driver, start uint64) (*TrustLayer, error) {
	sb, err := readSuperblock(env, drv, start)
	if err != nil {
		return nil, err
	}
	t := &TrustLayer{
		sb:           sb,
		meta:         newMetaCache(),
		regionByTask: make(map[*sim.Task]*journalRegion),
		openers:      make(map[uint64]map[int]int),
		committed:    make(map[uint64]uint64),
	}
	for i := range t.icache {
		t.icache[i].m = make(map[uint64]*tInode)
	}
	for j := uint64(0); j < sb.NumJournals; j++ {
		t.regions = append(t.regions, &journalRegion{
			id:     int(j),
			start:  sb.JournalStart + j*sb.JournalArea,
			blocks: sb.JournalArea,
			seq:    1,
		})
	}
	// Replay committed-but-not-checkpointed transactions.
	if err := t.recover(env, drv); err != nil {
		return nil, err
	}
	// Load allocation bitmaps.
	t.inodeBm = newBitmap(sb.NumInodes)
	t.blockBm = newBitmap(sb.TotalBlocks)
	var iblocks, bblocks [][]byte
	for i := uint64(0); i < sb.InodeBmBlocks; i++ {
		b := make([]byte, BlockSize)
		if err := drv.ReadPriv(env, sb.InodeBmStart+i, 1, b); err != nil {
			return nil, err
		}
		iblocks = append(iblocks, b)
	}
	for i := uint64(0); i < sb.BlockBmBlocks; i++ {
		b := make([]byte, BlockSize)
		if err := drv.ReadPriv(env, sb.BlockBmStart+i, 1, b); err != nil {
			return nil, err
		}
		bblocks = append(bblocks, b)
	}
	t.inodeBm.loadFrom(iblocks)
	t.blockBm.loadFrom(bblocks)
	// §7.3: "Upon initialization, the trusted layer sets the permission
	// table in AeoDriver to prevent the untrusted layer from accessing
	// any block in the file system." Access returns only through
	// GrantFile on open.
	if err := drv.SetPermRange(env, sb.Start, sb.TotalBlocks, aeodriver.PermNone); err != nil {
		return nil, err
	}
	return t, nil
}

// AttachProcess locks a (non-mounting) process out of the file system's
// blocks, exactly as Mount does for the mounting process. Every process
// that attaches an FS instance to this trust layer must be attached first.
func (t *TrustLayer) AttachProcess(env *sim.Env, drv *aeodriver.Driver) error {
	return t.enter(env, drv, func() error {
		return drv.SetPermRange(env, t.sb.Start, t.sb.TotalBlocks, aeodriver.PermNone)
	})
}

// Superblock returns the mounted superblock.
func (t *TrustLayer) Superblock() Superblock { return t.sb }

// FreeBlocks returns the number of unallocated blocks.
func (t *TrustLayer) FreeBlocks() uint64 { return t.blockBm.Free() }

// ---- metadata block cache ----

const metaShards = 64

type metaCache struct {
	shards [metaShards]metaShard
	// captures is the capture clock: it ticks once per snapshot taken
	// for journaling, so two images of one block are ordered by which was
	// captured later — the one that holds the other's changes.
	captures uint64
}

// snapshot is a block image captured for journaling, with its capture
// stamp.
type snapshot struct {
	image []byte
	stamp uint64
}

// stamp ticks the capture clock. The caller takes it at the instant it
// copies the block, before anything that can park.
func (mc *metaCache) stamp() uint64 {
	mc.captures++
	return mc.captures
}

type metaShard struct {
	lock sim.RWMutex
	m    map[uint64]*metaBlock
}

type metaBlock struct {
	data []byte
}

func newMetaCache() *metaCache {
	mc := &metaCache{}
	for i := range mc.shards {
		mc.shards[i].m = make(map[uint64]*metaBlock)
	}
	return mc
}

func (mc *metaCache) shard(blk uint64) *metaShard {
	return &mc.shards[blk%metaShards]
}

// get returns the cached metadata block, loading it from disk on miss.
func (mc *metaCache) get(env *sim.Env, drv *aeodriver.Driver, blk uint64) (*metaBlock, error) {
	sh := mc.shard(blk)
	sh.lock.RLock(env)
	mb := sh.m[blk]
	sh.lock.RUnlock(env)
	if mb != nil {
		return mb, nil
	}
	data := make([]byte, BlockSize)
	if err := drv.ReadPriv(env, blk, 1, data); err != nil {
		return nil, err
	}
	sh.lock.Lock(env)
	if exist := sh.m[blk]; exist != nil {
		sh.lock.Unlock(env)
		return exist, nil
	}
	mb = &metaBlock{data: data}
	sh.m[blk] = mb
	sh.lock.Unlock(env)
	return mb, nil
}

// install caches a block image without a disk read (for freshly allocated,
// zeroed metadata blocks, and for encoded bitmap blocks). A block already
// cached keeps its metaBlock and takes data as its contents.
func (mc *metaCache) install(env *sim.Env, blk uint64, data []byte) {
	sh := mc.shard(blk)
	sh.lock.Lock(env)
	if mb := sh.m[blk]; mb != nil {
		mb.data = data
	} else {
		sh.m[blk] = &metaBlock{data: data}
	}
	sh.lock.Unlock(env)
}

// update applies fn to the block under the shard lock and records a stamped
// image of the result in b.
func (mc *metaCache) update(env *sim.Env, drv *aeodriver.Driver, blk uint64, b *txnBuilder, fn func(data []byte)) error {
	mb, err := mc.get(env, drv, blk)
	if err != nil {
		return err
	}
	sh := mc.shard(blk)
	sh.lock.Lock(env)
	fn(mb.data)
	img := snapshot{image: b.image(blk), stamp: mc.stamp()}
	copy(img.image, mb.data)
	sh.lock.Unlock(env)
	b.record(blk, img)
	return nil
}

// drop removes blocks from the cache (after freeing them).
func (mc *metaCache) drop(env *sim.Env, blks []uint64) {
	for _, blk := range blks {
		sh := mc.shard(blk)
		sh.lock.Lock(env)
		delete(sh.m, blk)
		sh.lock.Unlock(env)
	}
}

// ---- transactions ----

// txnBuilder accumulates block images for one Table 5 operation. Repeated
// writes to the same block within the operation keep only the latest image
// (physical redo journaling: the final state is what replays), and the
// latest is captured into the buffer of the one before it: until commit,
// nothing but the builder (and, for a bitmap block, the meta cache, which
// is handed the same image) reads a builder's buffers.
type txnBuilder struct {
	t   *TrustLayer
	tx  txn
	env *sim.Env
	drv *aeodriver.Driver
}

func (t *TrustLayer) begin(env *sim.Env, drv *aeodriver.Driver) *txnBuilder {
	return &txnBuilder{t: t, env: env, drv: drv}
}

// find returns the index of blk's image in the transaction, or -1. A
// transaction writes a few blocks, so a scan beats a map.
func (b *txnBuilder) find(blk uint64) int {
	for i := range b.tx.writes {
		if b.tx.writes[i].blk == blk {
			return i
		}
	}
	return -1
}

// image returns the buffer a new capture of blk is copied into: the image
// the transaction already holds for blk, or a new one.
func (b *txnBuilder) image(blk uint64) []byte {
	if i := b.find(blk); i >= 0 {
		return b.tx.writes[i].image
	}
	return make([]byte, BlockSize)
}

// record adds a captured block image, replacing an earlier one of blk.
func (b *txnBuilder) record(blk uint64, img snapshot) {
	b.env.Exec(costJournalEntry)
	w := txnWrite{blk: blk, stamp: img.stamp, image: img.image}
	if i := b.find(blk); i >= 0 {
		b.tx.writes[i] = w
		return
	}
	b.tx.writes = append(b.tx.writes, w)
}

// commit queues the transaction on the calling thread's journal region,
// forcing a full commit when the region fills (as jbd2 does when the
// journal runs out of space).
func (b *txnBuilder) commit() {
	if len(b.tx.writes) == 0 {
		return
	}
	b.t.JournalImagesQueued += uint64(len(b.tx.writes))
	if b.t.region(b.env).appendTxn(b.env, b.tx) {
		// Best effort: a concurrent fsync may already be committing.
		if err := b.t.syncLocked(b.env, b.drv); err != nil {
			panic("aeofs: forced journal commit failed: " + err.Error())
		}
	}
}

// region returns (allocating on first use) the calling task's journal
// region.
func (t *TrustLayer) region(env *sim.Env) *journalRegion {
	task := env.Task()
	t.regionLock.Lock(env)
	r := t.regionByTask[task]
	if r == nil {
		r = t.regions[t.nextRegion%len(t.regions)]
		t.nextRegion++
		t.regionByTask[task] = r
	}
	t.regionLock.Unlock(env)
	return r
}

// ---- inode management ----

func (t *TrustLayer) ishard(ino uint64) *icacheShard {
	return &t.icache[ino%uint64(len(t.icache))]
}

// inode returns the cached trusted inode, loading it on miss. The returned
// tInode's lock is NOT held.
func (t *TrustLayer) inode(env *sim.Env, drv *aeodriver.Driver, ino uint64) (*tInode, error) {
	if ino == 0 || ino >= t.sb.NumInodes {
		return nil, fmt.Errorf("%w: inode %d", ErrInvalid, ino)
	}
	sh := t.ishard(ino)
	sh.lock.RLock(env)
	ti := sh.m[ino]
	sh.lock.RUnlock(env)
	if ti != nil {
		return ti, nil
	}
	blk := t.sb.ITableStart + ino/InodesPerBlock
	mb, err := t.meta.get(env, drv, blk)
	if err != nil {
		return nil, err
	}
	dec := decodeInode(mb.data[(ino%InodesPerBlock)*InodeSize:])
	sh.lock.Lock(env)
	if exist := sh.m[ino]; exist != nil {
		sh.lock.Unlock(env)
		return exist, nil
	}
	ti = &tInode{ino: dec}
	if dec.Ino == 0 {
		ti.ino.Ino = ino // unallocated record
	}
	sh.m[ino] = ti
	sh.lock.Unlock(env)
	return ti, nil
}

// storeInode encodes ti.ino into the inode table (cache) and records the
// image in the transaction. Caller holds ti.lock for writing.
func (t *TrustLayer) storeInode(env *sim.Env, drv *aeodriver.Driver, ti *tInode, b *txnBuilder) error {
	ino := ti.ino.Ino
	blk := t.sb.ITableStart + ino/InodesPerBlock
	return t.meta.update(env, drv, blk, b, func(data []byte) {
		ti.ino.encode(data[(ino%InodesPerBlock)*InodeSize:])
	})
}

// dropInode evicts an inode from the trusted cache (after free).
func (t *TrustLayer) dropInode(env *sim.Env, ino uint64) {
	sh := t.ishard(ino)
	sh.lock.Lock(env)
	delete(sh.m, ino)
	sh.lock.Unlock(env)
}

// recordBitmapBlock journals the bitmap block covering bit i of bm.
func (t *TrustLayer) recordBitmapBlock(env *sim.Env, bm *bitmap, diskStart uint64, bit uint64, b *txnBuilder) {
	bi := bm.blockOf(bit)
	img := snapshot{image: b.image(diskStart + bi), stamp: t.meta.stamp()}
	bm.encodeBlock(bi, img.image)
	b.record(diskStart+bi, img)
	// Keep the meta cache coherent so checkpoints see bitmap state.
	t.meta.install(env, diskStart+bi, img.image)
}

// allocBlock allocates a data block (absolute LBA).
func (t *TrustLayer) allocBlock(env *sim.Env, near uint64, b *txnBuilder) (uint64, error) {
	bit, ok := t.blockBm.alloc(env, near)
	if !ok {
		return 0, ErrNoSpace
	}
	t.recordBitmapBlock(env, t.blockBm, t.sb.BlockBmStart, bit, b)
	return t.sb.Start + bit, nil
}

// freeBlock releases a data block.
func (t *TrustLayer) freeBlock(env *sim.Env, blk uint64, b *txnBuilder) {
	bit := blk - t.sb.Start
	t.blockBm.release(env, bit)
	t.recordBitmapBlock(env, t.blockBm, t.sb.BlockBmStart, bit, b)
}

// allocInode allocates an inode number.
func (t *TrustLayer) allocInode(env *sim.Env, b *txnBuilder) (uint64, error) {
	bit, ok := t.inodeBm.alloc(env, 0)
	if !ok {
		return 0, ErrNoInodes
	}
	t.recordBitmapBlock(env, t.inodeBm, t.sb.InodeBmStart, bit, b)
	return bit, nil
}

// freeInode releases an inode number.
func (t *TrustLayer) freeInode(env *sim.Env, ino uint64, b *txnBuilder) {
	t.inodeBm.release(env, ino)
	t.recordBitmapBlock(env, t.inodeBm, t.sb.InodeBmStart, ino, b)
}

// ---- block mapping (index chain) ----

// loadBlocks populates ti.blocks/indexChain from the on-disk index chain.
// Caller holds ti.lock (read or write); loading mutates under blocksOK
// check, so callers that may load must hold the write lock.
func (t *TrustLayer) loadBlocks(env *sim.Env, drv *aeodriver.Driver, ti *tInode) error {
	if ti.blocksOK {
		return nil
	}
	ti.blocks = nil
	ti.indexChain = nil
	idx := ti.ino.FirstIndex
	remaining := ti.ino.Blocks
	for idx != 0 && remaining > 0 {
		ti.indexChain = append(ti.indexChain, idx)
		mb, err := t.meta.get(env, drv, idx)
		if err != nil {
			return err
		}
		n := uint64(PtrsPerIndex)
		if remaining < n {
			n = remaining
		}
		for i := uint64(0); i < n; i++ {
			ti.blocks = append(ti.blocks, le64(mb.data[i*8:]))
		}
		remaining -= n
		idx = le64(mb.data[PtrsPerIndex*8:])
	}
	if remaining > 0 {
		return fmt.Errorf("%w: inode %d index chain short by %d blocks", ErrCorrupt, ti.ino.Ino, remaining)
	}
	ti.blocksOK = true
	return nil
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// growBlocks appends n data blocks to the file, extending the index chain.
// Caller holds ti.lock for writing; returns the new block LBAs.
func (t *TrustLayer) growBlocks(env *sim.Env, drv *aeodriver.Driver, ti *tInode, n uint64, b *txnBuilder) ([]uint64, error) {
	if err := t.loadBlocks(env, drv, ti); err != nil {
		return nil, err
	}
	added := make([]uint64, 0, n)
	near := uint64(0)
	if len(ti.blocks) > 0 {
		near = ti.blocks[len(ti.blocks)-1] - t.sb.Start
	}
	for i := uint64(0); i < n; i++ {
		blk, err := t.allocBlock(env, near, b)
		if err != nil {
			// Roll back this operation's allocations.
			for _, a := range added {
				t.freeBlock(env, a, b)
			}
			return nil, err
		}
		near = blk - t.sb.Start
		added = append(added, blk)
	}

	// Thread the new blocks into the index chain.
	cnt := uint64(len(ti.blocks))
	for _, blk := range added {
		slot := cnt % PtrsPerIndex
		if slot == 0 {
			// Need a fresh index block.
			idxBlk, err := t.allocBlock(env, near, b)
			if err != nil {
				return nil, err
			}
			zero := make([]byte, BlockSize)
			t.meta.install(env, idxBlk, zero)
			if len(ti.indexChain) == 0 {
				ti.ino.FirstIndex = idxBlk
			} else {
				prev := ti.indexChain[len(ti.indexChain)-1]
				if err := t.meta.update(env, drv, prev, b, func(data []byte) {
					putLE64(data[PtrsPerIndex*8:], idxBlk)
				}); err != nil {
					return nil, err
				}
			}
			ti.indexChain = append(ti.indexChain, idxBlk)
		}
		idxBlk := ti.indexChain[len(ti.indexChain)-1]
		if err := t.meta.update(env, drv, idxBlk, b, func(data []byte) {
			putLE64(data[slot*8:], blk)
		}); err != nil {
			return nil, err
		}
		ti.blocks = append(ti.blocks, blk)
		cnt++
	}
	ti.ino.Blocks = cnt
	return added, nil
}

// shrinkBlocks truncates the file's block map to keep blocks, freeing the
// rest. Caller holds ti.lock for writing. Returns the freed LBAs.
// Permissions are revoked BEFORE the blocks return to the allocator, so a
// concurrent allocation can never have its fresh grant clobbered by this
// operation's revoke.
func (t *TrustLayer) shrinkBlocks(env *sim.Env, drv *aeodriver.Driver, ti *tInode, keep uint64, b *txnBuilder) ([]uint64, error) {
	if err := t.loadBlocks(env, drv, ti); err != nil {
		return nil, err
	}
	if keep >= uint64(len(ti.blocks)) {
		return nil, nil
	}
	freed := append([]uint64(nil), ti.blocks[keep:]...)
	for _, blk := range freed {
		if err := drv.SetPerm(env, blk, aeodriver.PermNone); err != nil {
			return nil, err
		}
		t.freeBlock(env, blk, b)
	}
	ti.blocks = ti.blocks[:keep]
	// Free index blocks past the need.
	needIdx := int((keep + PtrsPerIndex - 1) / PtrsPerIndex)
	var freedIdx []uint64
	for len(ti.indexChain) > needIdx {
		idxBlk := ti.indexChain[len(ti.indexChain)-1]
		t.freeBlock(env, idxBlk, b)
		freedIdx = append(freedIdx, idxBlk)
		ti.indexChain = ti.indexChain[:len(ti.indexChain)-1]
	}
	if needIdx == 0 {
		ti.ino.FirstIndex = 0
	} else if len(freedIdx) > 0 {
		// Clear the next pointer of the new last index block.
		last := ti.indexChain[len(ti.indexChain)-1]
		if err := t.meta.update(env, drv, last, b, func(data []byte) {
			putLE64(data[PtrsPerIndex*8:], 0)
		}); err != nil {
			return nil, err
		}
	}
	ti.ino.Blocks = keep
	t.meta.drop(env, freedIdx)
	return freed, nil
}

// ---- permission helpers ----

func canRead(in *Inode, uid uint32) bool {
	if in.Owner == uid {
		return in.Mode&ModeOwnerRead != 0
	}
	return in.Mode&ModeWorldRead != 0
}

func canWrite(in *Inode, uid uint32) bool {
	if in.Owner == uid {
		return in.Mode&ModeOwnerWrite != 0
	}
	return in.Mode&ModeWorldWrite != 0
}

func (t *TrustLayer) failCheck(err error) error {
	t.ChecksFailed++
	return err
}
