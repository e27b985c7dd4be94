package aeofs

import (
	"slices"

	"aeolia/internal/aeodriver"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

// Sync (Table 5 ⑤) commits every thread's in-memory journal (§7.4): lock
// all per-thread journal regions, merge the transactions writing to the
// same block — newest capture wins — write the winners as one batch per
// region (start/commit records), flush, and, when one is due, checkpoint:
// write the committed images in place, flush again, and retire the journal
// space. Each of the three write phases is one vectored submission, so the
// device's channels work on a phase's commands in parallel.
//
// Crash points consulted while a phase's vector is being built
// (sync:mid-journal between regions, ckpt:mid-write between in-place runs)
// submit what was built before them and nothing after, then abandon: "some
// landed, none flushed" means the same as when each run was its own write.
func (t *TrustLayer) Sync(env *sim.Env, drv *aeodriver.Driver) error {
	return t.enter(env, drv, func() error {
		return t.syncLocked(env, drv)
	})
}

func (t *TrustLayer) syncLocked(env *sim.Env, drv *aeodriver.Driver) error {
	t.syncMu.Lock(env)
	defer t.syncMu.Unlock(env)

	if err := t.crash(CrashSyncBeforeJournal); err != nil {
		return err
	}

	// Lock every per-thread journaling region and take its pending
	// transactions.
	pending := make([][]txn, len(t.regions))
	var all []txn
	for i, r := range t.regions {
		r.mu.Lock(env)
		pending[i], r.pending, r.pendingBlocks = r.pending, nil, 0
		all = append(all, pending[i]...)
	}
	unlockRegions := func() {
		for _, r := range t.regions {
			r.mu.Unlock(env)
		}
	}

	// Merge before write: per block, only the newest image goes to the
	// journal, and not even that one if an earlier commit already wrote a
	// newer (its transaction was captured first and queued last).
	winners := mergeTxns(all)
	t.JournalBlocksDistinct += uint64(len(winners))
	for blk, w := range winners {
		if w.stamp < t.committed[blk] {
			delete(winners, blk)
		}
	}
	if len(winners) == 0 {
		unlockRegions()
		return drv.Flush(env)
	}

	// Phase 1: write the journal batches, each region's winners in its
	// own area, all regions in one submission.
	type plannedBatch struct {
		r    *journalRegion
		txns []txn
	}
	var plan []plannedBatch
	for i, r := range t.regions {
		groups, err := splitBatches(keepWinners(pending[i], winners))
		if err != nil {
			unlockRegions()
			return err
		}
		for _, g := range groups {
			plan = append(plan, plannedBatch{r, g})
		}
	}
	t.commitSeq++
	var batches []journalBatch
	var werr error
	for i, p := range plan {
		var b journalBatch
		if b, werr = p.r.layBatch(p.txns, t.commitSeq, len(plan)); werr != nil {
			break
		}
		batches = append(batches, b)
		if i+1 == len(plan) || plan[i+1].r != p.r {
			// Between two regions (and after the last, as ever): the
			// batches laid out so far go down, the rest never do.
			if werr = t.crash(CrashSyncMidJournal); werr != nil {
				break
			}
		}
	}
	if err := t.writeJournal(env, drv, batches); werr == nil {
		werr = err
	}
	unlockRegions()
	if werr != nil {
		return werr
	}
	if err := t.crash(CrashSyncBeforeFlush); err != nil {
		return err
	}
	if err := drv.Flush(env); err != nil {
		return err
	}
	// The flush above is the commit point: every batch written in phase 1
	// is now durable.
	if tr := drv.Kernel().Engine().Tracer; tr != nil {
		tr.Emit(env.Now(), trace.JournalCommit, -1, -1, t.traceID(tr), 0, uint64(len(all)))
	}
	if t.uncheckpointed == nil {
		t.uncheckpointed = make(map[uint64][]byte)
	}
	for blk, w := range winners {
		t.committed[blk] = w.stamp
		t.uncheckpointed[blk] = w.image
	}
	if err := t.crash(CrashSyncAfterCommit); err != nil {
		// Crash after the commit records are durable but before any
		// in-place write: recovery must replay the journal.
		return err
	}
	t.Syncs++

	// Checkpoint lazily (as jbd2 does): the commit above already made
	// the transactions durable; in-place writes and journal retirement
	// only happen periodically or when journal space runs low.
	t.syncsSinceCkpt++
	needCkpt := t.syncsSinceCkpt >= checkpointEvery
	for _, r := range t.regions {
		if r.diskUsage() > 0.5 {
			needCkpt = true
		}
	}
	if !needCkpt {
		return nil
	}
	return t.checkpointLocked(env, drv)
}

// keepWinners reduces a region's pending transactions to the writes that
// won the merge, dropping transactions left with none. It filters in place:
// the commit owns the pending list it took from the region.
func keepWinners(pending []txn, winners map[uint64]txnWrite) []txn {
	kept := pending[:0]
	for _, tx := range pending {
		ws := tx.writes[:0]
		for _, w := range tx.writes {
			if winners[w.blk].stamp == w.stamp {
				ws = append(ws, w)
			}
		}
		if len(ws) > 0 {
			kept = append(kept, txn{writes: ws})
		}
	}
	return kept
}

// writeJournal submits the commit's batches as one vectored write and, once
// it has returned, reports each batch to the tracer.
func (t *TrustLayer) writeJournal(env *sim.Env, drv *aeodriver.Driver, batches []journalBatch) error {
	iov := make([]aeodriver.IOVec, len(batches))
	for i, b := range batches {
		iov[i] = b.vec
	}
	if err := drv.WriteVPriv(env, iov); err != nil {
		return err
	}
	tr := drv.Kernel().Engine().Tracer
	for _, b := range batches {
		images := uint64(b.vec.Cnt - 2)
		t.JournalBlocksWritten += images
		if tr != nil {
			tr.Emit(env.Now(), trace.JournalWrite, -1, b.region, t.traceID(tr), b.vec.LBA, images)
		}
	}
	return nil
}

// traceID returns the id that ties this instance's JournalWrite and
// JournalCommit events together when several AeoFS instances share one
// engine's tracer.
func (t *TrustLayer) traceID(tr *trace.Tracer) uint32 {
	if t.journalID == 0 {
		t.journalID = tr.NextChain()
	}
	return t.journalID
}

// checkpointEvery bounds how many commits may pass between checkpoints.
const checkpointEvery = 32

// Checkpoint forces an immediate checkpoint of all committed transactions
// (after a Sync), retiring the journal space.
func (t *TrustLayer) Checkpoint(env *sim.Env, drv *aeodriver.Driver) error {
	return t.enter(env, drv, func() error {
		t.syncMu.Lock(env)
		defer t.syncMu.Unlock(env)
		return t.checkpointLocked(env, drv)
	})
}

// checkpointLocked writes the uncheckpointed images in place and retires
// the journal space. Caller holds syncMu.
func (t *TrustLayer) checkpointLocked(env *sim.Env, drv *aeodriver.Driver) error {
	if len(t.uncheckpointed) == 0 {
		return nil
	}
	if err := t.crash(CrashCkptBeforeWrite); err != nil {
		return err
	}
	if err := t.writeInPlace(env, drv, t.uncheckpointed, CrashCkptMidWrite); err != nil {
		return err
	}
	if err := drv.Flush(env); err != nil {
		return err
	}
	if err := t.crash(CrashCkptBeforeRetire); err != nil {
		return err
	}
	var used []*journalRegion
	for _, r := range t.regions {
		if r.diskNext > r.start+1 {
			used = append(used, r)
		}
	}
	if err := t.retire(env, drv, used); err != nil {
		return err
	}
	if err := t.crash(CrashCkptAfterRetire); err != nil {
		return err
	}
	t.uncheckpointed = nil
	t.syncsSinceCkpt = 0
	t.Checkpoints++
	return drv.Flush(env)
}

// retire rewrites the given regions' headers as one vectored write, making
// every batch in them, and every batch of a commit up to the current one
// anywhere, stale.
func (t *TrustLayer) retire(env *sim.Env, drv *aeodriver.Driver, regions []*journalRegion) error {
	var iov []aeodriver.IOVec
	for _, r := range regions {
		hdr := make([]byte, BlockSize)
		encodeRegionHeader(hdr, r.seq, t.commitSeq)
		iov = append(iov, aeodriver.IOVec{LBA: r.start, Cnt: 1, Buf: hdr})
		r.diskNext = r.start + 1
	}
	return drv.WriteVPriv(env, iov)
}

// maxRunBlocks caps one in-place write command.
const maxRunBlocks = 256

// writeInPlace writes a blk->image map in ascending order as one vectored
// submission, one command per contiguous run, each gathering its images
// where they lie. crashSite, if non-empty, is consulted before each run
// after the first (an in-place rewrite torn mid-way): the runs before it
// are submitted, the rest never are.
func (t *TrustLayer) writeInPlace(env *sim.Env, drv *aeodriver.Driver, images map[uint64][]byte, crashSite string) error {
	blks := make([]uint64, 0, len(images))
	for blk := range images {
		blks = append(blks, blk)
	}
	slices.Sort(blks)
	var iov []aeodriver.IOVec
	var cerr error
	for i := 0; i < len(blks); {
		if i > 0 && crashSite != "" {
			if cerr = t.crash(crashSite); cerr != nil {
				break
			}
		}
		j := i + 1
		for j < len(blks) && blks[j] == blks[j-1]+1 && j-i < maxRunBlocks {
			j++
		}
		sg := make([][]byte, 0, j-i)
		for _, blk := range blks[i:j] {
			sg = append(sg, images[blk])
		}
		iov = append(iov, aeodriver.IOVec{LBA: blks[i], Cnt: uint32(j - i), SG: sg})
		i = j
	}
	if err := drv.WriteVPriv(env, iov); err != nil {
		return err
	}
	return cerr
}

// recover scans all journal regions at mount and replays the committed
// batches, newest commit winning per block.
func (t *TrustLayer) recover(env *sim.Env, drv *aeodriver.Driver) error {
	jr, err := scanJournal(func(blk uint64, cnt uint32, buf []byte) error {
		return drv.ReadPriv(env, blk, cnt, buf)
	}, &t.sb)
	if err != nil {
		return err
	}
	// Continue both sequences past everything the disk has seen, so that
	// no batch left over from before this mount can pass for a new one.
	t.commitSeq = jr.lastCommit
	for _, r := range t.regions {
		r.seq = jr.nextSeq
	}
	t.RecoveredTxns = jr.batches
	if jr.batches == 0 {
		return nil
	}
	if err := t.writeInPlace(env, drv, jr.images, ""); err != nil {
		return err
	}
	if err := drv.Flush(env); err != nil {
		return err
	}
	// Retire replayed journal space.
	if err := t.retire(env, drv, t.regions); err != nil {
		return err
	}
	return drv.Flush(env)
}

// ---- open tracking and sharing detection (§9.4) ----

// RegisterOpen records that a process opened ino; it reports whether the
// inode is now open by more than one process (the sharing case of Table 6).
func (t *TrustLayer) RegisterOpen(env *sim.Env, drv *aeodriver.Driver, ino uint64) bool {
	pid := drv.Process().ID
	t.openersLock.Lock(env)
	m := t.openers[ino]
	if m == nil {
		m = make(map[int]int)
		t.openers[ino] = m
	}
	m[pid]++
	shared := len(m) > 1
	t.openersLock.Unlock(env)
	return shared
}

// UnregisterOpen drops an open reference; when the last reference of an
// orphaned (unlinked- or renamed-over-while-open) inode goes away, its
// storage is freed. freed reports that deferred destruction ran — the ino
// is back in the allocator, so the caller must drop auxiliary state keyed
// by it.
func (t *TrustLayer) UnregisterOpen(env *sim.Env, drv *aeodriver.Driver, ino uint64) (freed bool, err error) {
	pid := drv.Process().ID
	t.openersLock.Lock(env)
	m := t.openers[ino]
	if m != nil {
		m[pid]--
		if m[pid] <= 0 {
			delete(m, pid)
		}
		if len(m) == 0 {
			delete(t.openers, ino)
		}
	}
	lastClose := len(m) == 0
	orphan := t.orphans[ino]
	t.openersLock.Unlock(env)
	if !lastClose || !orphan {
		return false, nil
	}
	// Complete the deferred unlink.
	err = t.enter(env, drv, func() error {
		t.openersLock.Lock(env)
		delete(t.orphans, ino)
		t.openersLock.Unlock(env)
		ti, err := t.inode(env, drv, ino)
		if err != nil {
			return err
		}
		ti.lock.Lock(env)
		defer ti.lock.Unlock(env)
		b := t.begin(env, drv)
		if err := t.destroyInodeLocked(env, drv, ti, b); err != nil {
			return err
		}
		b.commit()
		return nil
	})
	return err == nil, err
}

// IsShared reports whether ino is open by more than one process.
func (t *TrustLayer) IsShared(env *sim.Env, ino uint64) bool {
	t.openersLock.Lock(env)
	shared := len(t.openers[ino]) > 1
	t.openersLock.Unlock(env)
	return shared
}

// noteWriter records that pid mutated ino; two distinct writers mark the
// inode shared (sticky), triggering the §9.4 sharing penalty in FS
// instances.
func (t *TrustLayer) noteWriter(env *sim.Env, ino uint64, pid int) {
	t.openersLock.Lock(env)
	if t.lastWriter == nil {
		t.lastWriter = make(map[uint64]int)
		t.sharedIno = make(map[uint64]bool)
	}
	if prev, ok := t.lastWriter[ino]; ok && prev != pid {
		t.sharedIno[ino] = true
	}
	t.lastWriter[ino] = pid
	t.openersLock.Unlock(env)
}

// IsSharedIno reports whether ino has been mutated (or is concurrently
// open) by more than one process.
func (t *TrustLayer) IsSharedIno(env *sim.Env, ino uint64) bool {
	t.openersLock.Lock(env)
	shared := t.sharedIno[ino] || len(t.openers[ino]) > 1
	t.openersLock.Unlock(env)
	return shared
}

func (t *TrustLayer) hasOpeners(env *sim.Env, ino uint64) bool {
	t.openersLock.Lock(env)
	n := len(t.openers[ino])
	t.openersLock.Unlock(env)
	return n > 0
}

func (t *TrustLayer) markOrphan(env *sim.Env, ino uint64) {
	t.openersLock.Lock(env)
	if t.orphans == nil {
		t.orphans = make(map[uint64]bool)
	}
	t.orphans[ino] = true
	t.openersLock.Unlock(env)
}

// GrantFile grants the calling process direct access to a file's data
// blocks (read, or read-write), after an access check. Called on open.
func (t *TrustLayer) GrantFile(env *sim.Env, drv *aeodriver.Driver, ino uint64, write bool) error {
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
		uid := t.uid(drv)
		if !canRead(&ti.ino, uid) {
			return t.failCheck(ErrAccess)
		}
		if write && !canWrite(&ti.ino, uid) {
			return t.failCheck(ErrAccess)
		}
		if err := t.loadBlocks(env, drv, ti); err != nil {
			return err
		}
		p := aeodriver.PermRead
		if write {
			p = aeodriver.PermRW
		}
		for _, blk := range ti.blocks {
			if err := drv.GrantPerm(env, blk, p); err != nil {
				return err
			}
		}
		return nil
	})
}

// RevokeFile revokes the process's direct access to a file's data blocks.
// Called on last close within the process.
func (t *TrustLayer) RevokeFile(env *sim.Env, drv *aeodriver.Driver, ino uint64) error {
	return t.enter(env, drv, func() error {
		ti, err := t.inode(env, drv, ino)
		if err != nil {
			return err
		}
		ti.lock.Lock(env)
		defer ti.lock.Unlock(env)
		if ti.ino.Type != TypeRegular {
			return nil
		}
		if err := t.loadBlocks(env, drv, ti); err != nil {
			return err
		}
		for _, blk := range ti.blocks {
			if err := drv.SetPerm(env, blk, aeodriver.PermNone); err != nil {
				return err
			}
		}
		return nil
	})
}
