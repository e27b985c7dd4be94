package aeofs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"aeolia/internal/aeodriver"
	"aeolia/internal/sim"
)

// Journaling (§7.4): standard block-level physical redo journaling of core
// state, prepared in memory by the trusted layer and committed on fsync.
// Each thread owns a journal region to maximize scalability. fsync locks
// every region, merges the transactions writing to the same block — the
// newest image wins, by the stamp taken when the image was captured — writes
// the winners as one batch per region with start and commit records,
// flushes, and lazily checkpoints the committed images in place.
//
// Ordering. An image is a snapshot of a shared cached block, so a later
// snapshot contains every earlier one's changes; what orders two images of
// one block is therefore when each was *captured*, not when its operation
// finished (the paper stamps with rdtsc; here a capture counter, which
// unlike virtual time cannot tie across cores). A commit never writes an
// image older than one already committed for its block, so on disk a later
// commit's image is always the newer one and replay needs nothing finer
// than the commit sequence each batch header carries: within one commit no
// block appears twice.
//
// Atomicity. Dropping the losers splits transactions across regions: a
// transaction may keep its directory block in its own region while the
// inode-table image that supersedes its own sits in another region's batch.
// The commit is the atomic unit, not the batch: every batch header records
// how many batches its commit wrote, and replay discards a commit it cannot
// find all of (only the last commit before a power loss can be incomplete).

const (
	journalMagic       = 0xAE0F10A1
	journalCommitMagic = 0xAE0FC0B2
)

// txnWrite is one block image inside a transaction. stamp orders it against
// other images of the same block: the capture stamp in memory, the commit
// sequence when read back from disk.
type txnWrite struct {
	blk   uint64
	stamp uint64
	image []byte
}

// txn is a prepared in-memory journal transaction.
type txn struct {
	writes []txnWrite
}

// journalRegion is one thread's journal: an in-memory pending list plus an
// on-disk area [start, start+blocks).
type journalRegion struct {
	id     int
	start  uint64
	blocks uint64

	mu      sim.Mutex
	pending []txn
	// pendingBlocks counts queued block images (for fill-triggered
	// commits) — queued, not distinct: the forced-commit cadence is set
	// by how much metadata sits un-journalled, whatever the merge will
	// later drop.
	pendingBlocks int
	seq           uint64 // next batch sequence number
	// diskNext is the next free block in the on-disk area; it resets to
	// start+1 when a checkpoint retires the region.
	diskNext uint64
}

// regionHeader occupies the region's first block: {magic, startSeq,
// ckptCommit}. Batches with seq < startSeq are stale, and so — in every
// region, whichever header says it — are batches of a commit at or below
// ckptCommit: the checkpoint that wrote this header had already put them in
// place, so a retire that reached only some of the headers still retires
// the whole journal.
func encodeRegionHeader(b []byte, startSeq, ckptCommit uint64) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], journalMagic)
	le.PutUint64(b[8:], startSeq)
	le.PutUint64(b[16:], ckptCommit)
}

func decodeRegionHeader(b []byte) (startSeq, ckptCommit uint64, ok bool) {
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != journalMagic {
		return 0, 0, false
	}
	return le.Uint64(b[8:]), le.Uint64(b[16:]), true
}

// batch header block layout:
//
//	magic(4) nbatches(4) seq(8) commit(8) nblocks(8) blk[0..n)(8 each)
//
// followed by n image blocks and one commit block:
//
//	commitMagic(4) crc(4) seq(8)
//
// commit is the sequence number of the Sync that wrote the batch and
// nbatches how many batches that Sync wrote across all regions.
const batchMaxBlocks = (BlockSize - 32) / 8

func encodeBatchHeader(b []byte, seq, commit uint64, nbatches uint32, blks []uint64) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], journalMagic)
	le.PutUint32(b[4:], nbatches)
	le.PutUint64(b[8:], seq)
	le.PutUint64(b[16:], commit)
	le.PutUint64(b[24:], uint64(len(blks)))
	for i, blk := range blks {
		le.PutUint64(b[32+8*i:], blk)
	}
}

func decodeBatchHeader(b []byte) (seq, commit uint64, nbatches uint32, blks []uint64, ok bool) {
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != journalMagic {
		return 0, 0, 0, nil, false
	}
	nbatches = le.Uint32(b[4:])
	seq = le.Uint64(b[8:])
	commit = le.Uint64(b[16:])
	n := le.Uint64(b[24:])
	if n > batchMaxBlocks {
		return 0, 0, 0, nil, false
	}
	blks = make([]uint64, n)
	for i := range blks {
		blks[i] = le.Uint64(b[32+8*i:])
	}
	return seq, commit, nbatches, blks, true
}

func encodeCommit(b []byte, seq uint64, crc uint32) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], journalCommitMagic)
	le.PutUint32(b[4:], crc)
	le.PutUint64(b[8:], seq)
}

func decodeCommit(b []byte) (seq uint64, crc uint32, ok bool) {
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != journalCommitMagic {
		return 0, 0, false
	}
	return le.Uint64(b[8:]), le.Uint32(b[4:]), true
}

// commitThreshold is the number of queued images at which a region forces
// a commit: a third of its disk area (leaving room for batch framing and
// for commits to accumulate before a checkpoint), but never more than one
// batch holds. Once the merge drops superseded images a transaction is only
// atomic together with the images that supersede its own, and within a
// region that means one batch, one CRC.
func (r *journalRegion) commitThreshold() int {
	return int(min(r.blocks/3, batchMaxBlocks))
}

// appendTxn queues a prepared transaction on the calling thread's region
// and reports whether the region has filled past the forced-commit
// threshold.
func (r *journalRegion) appendTxn(env *sim.Env, t txn) (mustCommit bool) {
	r.mu.Lock(env)
	r.pending = append(r.pending, t)
	r.pendingBlocks += len(t.writes)
	full := r.pendingBlocks >= r.commitThreshold()
	r.mu.Unlock(env)
	return full
}

// journalBatch is one batch laid out for the commit's vectored write: the
// scatter-gather list is header, the images where they lie, commit record.
type journalBatch struct {
	region int
	vec    aeodriver.IOVec
}

// splitBatches cuts a region's kept transactions into groups of at most
// batchMaxBlocks images, whole transactions only, preserving order.
func splitBatches(kept []txn) ([][]txn, error) {
	var groups [][]txn
	for len(kept) > 0 {
		n, images := 0, 0
		for n < len(kept) && images+len(kept[n].writes) <= batchMaxBlocks {
			images += len(kept[n].writes)
			n++
		}
		if n == 0 {
			return nil, fmt.Errorf("aeofs: transaction exceeds journal batch capacity (%d blocks)", batchMaxBlocks)
		}
		groups = append(groups, kept[:n])
		kept = kept[n:]
	}
	return groups, nil
}

// layBatch lays one group of transactions out as the region's next on-disk
// batch and advances the region past it. Batches go sequentially after the
// last unretired one, so journal space committed by earlier fsyncs stays
// replayable until a checkpoint retires it (lazy checkpointing, as jbd2
// does). The caller holds r.mu and submits the returned vector.
func (r *journalRegion) layBatch(group []txn, commit uint64, nbatches int) (journalBatch, error) {
	if r.diskNext == 0 {
		r.diskNext = r.start + 1
	}
	var blks []uint64
	crc := crc32.NewIEEE()
	for _, t := range group {
		for _, w := range t.writes {
			blks = append(blks, w.blk)
			crc.Write(w.image)
		}
	}
	need := uint64(len(blks) + 2)
	if r.diskNext+need > r.start+r.blocks {
		return journalBatch{}, fmt.Errorf("%w: journal region %d full", ErrNoSpace, r.id)
	}
	// A start and a commit block frame the images (§7.4); the images are
	// gathered from where they were captured, not staged.
	frame := make([]byte, 2*BlockSize)
	encodeBatchHeader(frame[:BlockSize], r.seq, commit, uint32(nbatches), blks)
	encodeCommit(frame[BlockSize:], r.seq, crc.Sum32())
	sg := make([][]byte, 0, need)
	sg = append(sg, frame[:BlockSize])
	for _, t := range group {
		for _, w := range t.writes {
			sg = append(sg, w.image)
		}
	}
	sg = append(sg, frame[BlockSize:])
	b := journalBatch{region: r.id, vec: aeodriver.IOVec{LBA: r.diskNext, Cnt: uint32(need), SG: sg}}
	r.diskNext += need
	r.seq++
	return b, nil
}

// diskUsage returns the fraction of the region's on-disk area in use.
func (r *journalRegion) diskUsage() float64 {
	if r.diskNext <= r.start+1 || r.blocks == 0 {
		return 0
	}
	return float64(r.diskNext-r.start-1) / float64(r.blocks)
}

// diskBatch is one committed batch read back from a region.
type diskBatch struct {
	commit   uint64
	nbatches uint32
	writes   []txnWrite // stamp = commit
}

// regionScan is what one region's on-disk area holds.
type regionScan struct {
	// ckptCommit is the header's checkpointed-commit mark.
	ckptCommit uint64
	// nextSeq is one past the last batch sequence number the region has
	// used: what a mount must continue from so that fresh batches never
	// look stale and stale ones never look fresh.
	nextSeq uint64
	batches []diskBatch
}

// scanRegion reads a region's on-disk batches, returning those with a
// matching commit record and CRC.
func scanRegion(read func(blk uint64, cnt uint32, buf []byte) error, start, blocks uint64) (regionScan, error) {
	var rs regionScan
	hdr := make([]byte, BlockSize)
	if err := read(start, 1, hdr); err != nil {
		return rs, err
	}
	startSeq, ckpt, ok := decodeRegionHeader(hdr)
	if !ok {
		return rs, nil // unformatted region
	}
	rs.ckptCommit, rs.nextSeq = ckpt, startSeq
	next := start + 1
	for next+2 <= start+blocks {
		if err := read(next, 1, hdr); err != nil {
			return rs, err
		}
		seq, commit, nbatches, blks, ok := decodeBatchHeader(hdr)
		if !ok || seq < rs.nextSeq {
			break
		}
		need := uint64(len(blks))
		if next+1+need >= start+blocks {
			break
		}
		images := make([]byte, need*BlockSize)
		if need > 0 {
			if err := read(next+1, uint32(need), images); err != nil {
				return rs, err
			}
		}
		cb := make([]byte, BlockSize)
		if err := read(next+1+need, 1, cb); err != nil {
			return rs, err
		}
		cseq, ccrc, ok := decodeCommit(cb)
		if !ok || cseq != seq {
			break // uncommitted tail: stop replay here
		}
		if crc32.ChecksumIEEE(images) != ccrc {
			break
		}
		b := diskBatch{commit: commit, nbatches: nbatches}
		for i, blk := range blks {
			b.writes = append(b.writes, txnWrite{blk: blk, stamp: commit, image: images[i*BlockSize : (i+1)*BlockSize : (i+1)*BlockSize]})
		}
		rs.batches = append(rs.batches, b)
		rs.nextSeq = seq + 1
		next += 2 + need
	}
	return rs, nil
}

// journalReplay is the replayable content of a volume's journal.
type journalReplay struct {
	// images maps each journalled block to its newest committed image.
	images map[uint64][]byte
	// batches counts the batches those images came from.
	batches int
	// nextSeq and lastCommit are what a mount continues the batch and
	// commit sequences from.
	nextSeq, lastCommit uint64
}

// scanJournal reads every region and resolves what a mount must replay (and
// fsck must overlay): the batches of every commit that is newer than the
// last checkpoint any header records and whose batches are all present,
// merged per block by commit sequence.
func scanJournal(read func(blk uint64, cnt uint32, buf []byte) error, sb *Superblock) (journalReplay, error) {
	jr := journalReplay{nextSeq: 1}
	var all []diskBatch
	for j := uint64(0); j < sb.NumJournals; j++ {
		rs, err := scanRegion(read, sb.JournalStart+j*sb.JournalArea, sb.JournalArea)
		if err != nil {
			return jr, err
		}
		all = append(all, rs.batches...)
		jr.nextSeq = max(jr.nextSeq, rs.nextSeq)
		jr.lastCommit = max(jr.lastCommit, rs.ckptCommit)
	}
	ckpt := jr.lastCommit
	found := make(map[uint64]uint32)
	for _, b := range all {
		found[b.commit]++
		jr.lastCommit = max(jr.lastCommit, b.commit)
	}
	var live []txn
	for _, b := range all {
		if b.commit > ckpt && found[b.commit] == b.nbatches {
			live = append(live, txn{writes: b.writes})
		}
	}
	jr.batches = len(live)
	jr.images = make(map[uint64][]byte)
	for blk, w := range mergeTxns(live) {
		jr.images[blk] = w.image
	}
	return jr, nil
}

// mergeTxns resolves same-block writes across transactions (§7.4): per
// block, the write with the newest stamp.
func mergeTxns(txns []txn) map[uint64]txnWrite {
	latest := make(map[uint64]txnWrite)
	for _, t := range txns {
		for _, w := range t.writes {
			if cur, ok := latest[w.blk]; !ok || w.stamp >= cur.stamp {
				latest[w.blk] = w
			}
		}
	}
	return latest
}
