package aeofs

import (
	"fmt"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/iobuf"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

// beginChain starts one traced copy chain on a datapath: it announces the
// path's copy budget the first time the path appears (the analyzer then
// holds every chain on it to that budget) and allocates the chain id.
// Returns trace.NoCID when tracing is off — callers skip their emissions.
func (fs *FS) beginChain(path int, budget uint64) uint32 {
	if fs.cache.eng == nil || fs.cache.eng.Tracer == nil {
		return trace.NoCID
	}
	if fs.copyAnnounced[path].CompareAndSwap(false, true) {
		fs.emitPath(trace.CopyBudget, path, trace.NoCID, budget)
	}
	return fs.cache.eng.Tracer.NextChain()
}

// emitPath emits one copy-accounting event (CopyBudget/BufCopy/BufHandoff)
// with the path id in the QID field.
func (fs *FS) emitPath(typ trace.Type, path int, cid uint32, aux uint64) {
	eng := fs.cache.eng
	if eng == nil || eng.Tracer == nil {
		return
	}
	eng.Tracer.Emit(eng.Now(), typ, -1, path, cid, 0, aux)
}

// Data path of the untrusted layer: page-cached reads and writes under the
// file's readers-writer range lock, with direct device access to data
// blocks through the permission-checked driver API.

// Read reads from the fd's current position.
func (fs *FS) Read(env *sim.Env, fd int, buf []byte) (int, error) {
	f, err := fs.fdt.Get(env, fd)
	if err != nil {
		return 0, err
	}
	n, err := fs.readAt(env, f, buf, f.pos)
	f.pos += uint64(n)
	return n, err
}

// ReadAt reads at an explicit offset.
func (fs *FS) ReadAt(env *sim.Env, fd int, buf []byte, off uint64) (int, error) {
	f, err := fs.fdt.Get(env, fd)
	if err != nil {
		return 0, err
	}
	return fs.readAt(env, f, buf, off)
}

// Write writes at the fd's current position (honoring O_APPEND).
func (fs *FS) Write(env *sim.Env, fd int, buf []byte) (int, error) {
	f, err := fs.fdt.Get(env, fd)
	if err != nil {
		return 0, err
	}
	if f.flags&O_APPEND != 0 {
		f.ui.lock.RLock(env)
		f.pos = f.ui.ino.Size
		f.ui.lock.RUnlock(env)
	}
	n, err := fs.writeAt(env, f, buf, f.pos)
	f.pos += uint64(n)
	return n, err
}

// WriteAt writes at an explicit offset.
func (fs *FS) WriteAt(env *sim.Env, fd int, buf []byte, off uint64) (int, error) {
	f, err := fs.fdt.Get(env, fd)
	if err != nil {
		return 0, err
	}
	return fs.writeAt(env, f, buf, off)
}

// Seek sets the fd position.
func (fs *FS) Seek(env *sim.Env, fd int, off uint64) error {
	f, err := fs.fdt.Get(env, fd)
	if err != nil {
		return err
	}
	f.pos = off
	return nil
}

func (fs *FS) readAt(env *sim.Env, f *OpenFile, buf []byte, off uint64) (int, error) {
	if f.flags&O_ACCMODE == O_WRONLY {
		return 0, ErrBadFD
	}
	u := f.ui
	if fs.Trust.IsSharedIno(env, u.inoNum) {
		// §9.4: rebuild auxiliary state when sharing.
		fs.SharedPenalties.Add(1)
		fs.invalidate(env, u)
		if err := fs.ensureInode(env, u); err != nil {
			return 0, err
		}
	}
	u.lock.RLock(env)
	size := u.ino.Size
	u.lock.RUnlock(env)
	if off >= size {
		return 0, nil
	}
	if off+uint64(len(buf)) > size {
		buf = buf[:size-off]
	}
	if len(buf) == 0 {
		return 0, nil
	}
	if err := fs.ensureBlocks(env, u); err != nil {
		return 0, err
	}
	p0 := off / BlockSize
	p1 := (off + uint64(len(buf)) - 1) / BlockSize

	pc := u.pc
	cm := fs.cache
	npages := p1 - p0 + 1
	// Does this read extend the file's detected sequential stream?
	seq := cm.cfg.MaxReadahead > 0 && p0 == pc.raNext

	// Epoch fast path: an all-resident span completes against a
	// seqlock-validated tree snapshot with no budgetMu, range-lock, or
	// tree-lock traffic. Any anomaly falls through to the locked slow path.
	if n, ok := fs.fastReadAt(env, pc, buf, off, p0, p1); ok {
		pc.advanceStream(seq, p0, p1)
		fs.ReadsOps.Add(1)
		fs.BytesRead.Add(uint64(n))
		return n, nil
	}

	// Reserve budget for the worst case (every page a miss) before taking
	// the range lock: the charge may evict — and write back — pages whose
	// range locks must stay acquirable. Hits are refunded after the walk.
	cm.charge(env, npages*BlockSize)
	kept := uint64(0) // miss pages that ended up resident on our charge
	raHit := false

	n, err := func() (int, error) {
		pc.rl.Lock(env, p0, p1+1, false)
		defer pc.rl.Unlock(env, p0, p1+1, false)

		// Walk pages; fetch misses in contiguous-LBA batches, retaining
		// page pointers for the copy-out. Pages another reader (or
		// read-ahead) already has in flight are waited on, not re-read.
		// Resident pages may sit between two misses, so the pending batch
		// carries each page's index, not just where it starts.
		got := make([]*cachePage, npages)
		var pending struct {
			idxs  []uint64
			pages []*cachePage
		}
		flush := func() error {
			if len(pending.pages) == 0 {
				return nil
			}
			pages, idxs := pending.pages, pending.idxs
			pending.pages, pending.idxs = nil, nil
			err := fs.readPagesFromDisk(env, u, idxs, pages)
			now := env.Now()
			for i, cp := range pages {
				if err != nil {
					cp.doomed = true
					pc.drop(env, idxs[i])
				}
				if cp.doomed {
					// Failed, or truncated/invalidated while the
					// read was in flight: the page does not stay
					// resident on our charge.
					kept--
				}
				// Wake any reader that blocked on the fill; doomed
				// waiters re-look-up.
				cp.fill.FireAt(now)
			}
			return err
		}
		for p := p0; p <= p1; p++ {
			for {
				cp := pc.lookup(env, p)
				if cp == nil {
					// No per-page buffer: the fill rebinds data into the
					// run buffer the DMA lands in (readPagesFromDisk).
					cp = &cachePage{fill: sim.NewCompletion()}
					env.Exec(costPageAlloc)
					pc.insert(env, p, cp)
					kept++
					pending.idxs = append(pending.idxs, p)
					pending.pages = append(pending.pages, cp)
					got[p-p0] = cp
					break
				}
				if !cp.filled() {
					// About to park: submit our own batch first so it
					// overlaps with the fill we wait on.
					if err := flush(); err != nil {
						return 0, err
					}
					cp.awaitFill(env)
				}
				if cp.doomed {
					continue // dropped while in flight; re-look-up
				}
				if cp.ioErr != nil {
					// Its asynchronous fill failed; retry synchronously
					// into the same (already charged) page.
					if err := fs.readPagesFromDisk(env, u, []uint64{p}, []*cachePage{cp}); err != nil {
						return 0, err
					}
					cp.ioErr = nil
				}
				if cp.ra {
					cp.ra = false
					cm.raHits.Add(1)
					raHit = true
					if blocks := u.blocks; u.blocksOK && p < uint64(len(blocks)) {
						cm.emit(trace.ReadaheadHit, trace.NoCID, blocks[p], p)
					}
				}
				got[p-p0] = cp
				break
			}
		}
		if err := flush(); err != nil {
			return 0, err
		}

		// Copy out of the retained pages.
		n := 0
		for i, cp := range got {
			p := p0 + uint64(i)
			pageOff := 0
			if p == p0 {
				pageOff = int(off % BlockSize)
			}
			end := BlockSize
			want := len(buf) - n
			if end-pageOff > want {
				end = pageOff + want
			}
			copy(buf[n:], cp.data[pageOff:end])
			n += end - pageOff
		}
		env.Exec(copyCost(n))
		return n, nil
	}()
	cm.uncharge((npages - kept) * BlockSize)
	if err != nil {
		return n, err
	}

	// Adapt the read-ahead window and top up the pipeline (outside the
	// range lock: the speculative charge may need to evict within it). A
	// hit widens the window only as far as the stream has proven itself:
	// a short sequential burst (a read-modify-write) never earns more than
	// the initial window, a long scan reaches the cap after as many pages
	// and widens again at once after waste halved it.
	pc.advanceStream(seq, p0, p1)
	if seq {
		if w := pc.raWindow; raHit && w < cm.cfg.MaxReadahead && uint64(2*w) <= pc.raRun {
			pc.raWindow = min(2*w, cm.cfg.MaxReadahead)
		}
		fs.issueReadahead(env, u, p1)
	}
	if cid := fs.beginChain(trace.PathFSRead, 1); cid != trace.NoCID {
		fs.emitPath(trace.BufCopy, trace.PathFSRead, cid, uint64(n))
	}
	fs.ReadsOps.Add(1)
	fs.BytesRead.Add(uint64(n))
	return n, nil
}

// fastReadAt is the lock-free cache-hit read (DESIGN.md §16): when every
// page of the span is resident, filled, and stable, the read validates
// against the tree's seqlock epoch and copies out without acquiring
// budgetMu (nothing is inserted, so no worst-case reservation is needed),
// the range lock, or the tree lock. Validation requires the epoch to be
// even and unchanged across the whole walk and no writer mid-operation
// (pc.writers covers data mutations the structural epoch cannot see). Any
// anomaly — missing page, in-flight fill, doomed/failed page, an unconsumed
// read-ahead page (whose bookkeeping needs the slow path) — aborts, and the
// caller re-reads from scratch under locks. Virtual time (the radix
// descents and the copy-out, identical to the slow path's charges) is
// charged only after validation succeeds: a failed attempt is free,
// modeling an optimistic reader whose wasted work vanishes next to the
// locked retry. The read-ahead pipeline is not topped up from here — every
// page already hit, so there is nothing to prefetch that the next miss
// (slow path) would not request.
func (fs *FS) fastReadAt(env *sim.Env, pc *pageCache, buf []byte, off, p0, p1 uint64) (int, bool) {
	if pc.writers.Load() != 0 {
		return 0, false
	}
	s0 := pc.seq.Load()
	if s0&1 != 0 {
		return 0, false
	}
	n := 0
	for p := p0; p <= p1; p++ {
		cp := pc.peek(p)
		if cp == nil || !cp.filled() || cp.doomed || cp.ra || cp.ioErr != nil {
			return 0, false
		}
		pageOff := 0
		if p == p0 {
			pageOff = int(off % BlockSize)
		}
		end := BlockSize
		if want := len(buf) - n; end-pageOff > want {
			end = pageOff + want
		}
		copy(buf[n:], cp.data[pageOff:end])
		cp.ref = true // CLOCK hint; harmless if validation fails
		n += end - pageOff
	}
	if pc.writers.Load() != 0 || pc.seq.Load() != s0 {
		return 0, false
	}
	pc.Hits.Add(p1 - p0 + 1)
	fs.cache.fastReads.Add(1)
	env.Exec(scaled(costRadixLookup, int(p1-p0+1)) + copyCost(n))
	if cid := fs.beginChain(trace.PathFSRead, 1); cid != trace.NoCID {
		fs.emitPath(trace.BufCopy, trace.PathFSRead, cid, uint64(n))
	}
	return n, true
}

// issueReadahead tops the file's read-ahead pipeline up to the adaptive
// window past lastRead, submitting fire-and-forget read batches through
// the same SubmitBatch path the data plane uses. Pages enter the tree in
// an in-flight state (fill pending) before submission, so a racing reader
// blocks on the arriving page instead of duplicating the I/O. Runs are
// chunked (readaheadChunk) so the window arrives as several completions
// and consumption overlaps the remaining transfers. Called without the
// range lock held.
func (fs *FS) issueReadahead(env *sim.Env, u *uInode, lastRead uint64) {
	cm, pc := fs.cache, u.pc
	w := pc.raWindow
	if w <= 0 {
		w = cm.cfg.startWindow()
		pc.raWindow = w
	}
	start := lastRead + 1
	if pc.raIssued > start {
		start = pc.raIssued
	}
	end := lastRead + 1 + uint64(w)
	u.lock.RLock(env)
	blocks := u.blocks
	u.lock.RUnlock(env)
	if end > uint64(len(blocks)) {
		end = uint64(len(blocks))
	}
	if start >= end {
		return
	}
	// Speculative pages never push the cache over budget: decline the
	// whole window if eviction cannot make room.
	if !cm.tryCharge(env, (end-start)*BlockSize) {
		return
	}
	var idxs []uint64
	var cps []*cachePage
	env.Exec(costRadixLookup)
	pc.treeLock.Lock(env)
	pc.seq.Add(1)
	for p := start; p < end; p++ {
		if pc.tree.Get(p) != nil {
			continue
		}
		cp := &cachePage{fill: sim.NewCompletion(), ra: true}
		pc.tree.Set(p, cp)
		idxs = append(idxs, p)
		cps = append(cps, cp)
	}
	pc.seq.Add(1)
	pc.treeLock.Unlock(env)
	pc.raIssued = end
	cm.uncharge((end - start - uint64(len(idxs))) * BlockSize) // already-resident pages
	if len(idxs) == 0 {
		return
	}
	env.Exec(time.Duration(len(idxs)) * costPageAlloc)

	// Contiguous page- and LBA-runs become one command each, chunked; DMA
	// lands directly in the pages' buffers (no copy at completion).
	var iov []aeodriver.IOVec
	var runPages [][]*cachePage
	i := 0
	for i < len(idxs) {
		j := i + 1
		for j < len(idxs) && j-i < readaheadChunk &&
			idxs[j] == idxs[j-1]+1 && blocks[idxs[j]] == blocks[idxs[j-1]]+1 {
			j++
		}
		run := make([]byte, (j-i)*BlockSize)
		for k := i; k < j; k++ {
			cps[k].data = run[(k-i)*BlockSize : (k-i+1)*BlockSize : (k-i+1)*BlockSize]
		}
		iov = append(iov, aeodriver.IOVec{LBA: blocks[idxs[i]], Cnt: uint32(j - i), Buf: run})
		runPages = append(runPages, cps[i:j])
		i = j
	}
	reqs, err := fs.drv.SubmitBatch(env, nvme.OpRead, iov, false)
	if err != nil {
		// Admission refused (queue full) or the grant went away: undo
		// the insertions; waiters that raced in re-look-up and fall
		// back to demand reads.
		now := env.Now()
		pc.treeLock.Lock(env)
		pc.seq.Add(1)
		for k, p := range idxs {
			if pc.tree.Get(p) == cps[k] {
				pc.tree.Delete(p)
			}
			cps[k].doomed = true
		}
		pc.seq.Add(1)
		pc.treeLock.Unlock(env)
		cm.uncharge(uint64(len(idxs)) * BlockSize)
		for _, cp := range cps {
			cp.fill.FireAt(now)
		}
		return
	}
	cm.raIssued.Add(uint64(len(idxs)))
	cm.emit(trace.ReadaheadIssue, trace.NoCID, iov[0].LBA, uint64(len(idxs)))
	for r := range reqs {
		req, pages := reqs[r], runPages[r]
		req.OnComplete(func(rq *aeodriver.Request) {
			// Engine context: flip page state and wake waiters only.
			now := cm.eng.Now()
			ferr := rq.Err()
			for _, cp := range pages {
				if cp.doomed {
					// Truncated/invalidated while in flight: the
					// drop left the charge to us.
					cm.uncharge(BlockSize)
				} else if ferr != nil {
					cp.ioErr = ferr
				}
				cp.fill.FireAt(now)
			}
		})
	}
}

// readPagesFromDisk fills pages (pages[i] is the file's page idxs[i], in
// ascending order) from the device: runs of consecutive pages on contiguous
// LBAs become one command each, and every run is submitted in a single
// vectored batch (one doorbell, one trusted-gate entry) before the pages
// are populated.
func (fs *FS) readPagesFromDisk(env *sim.Env, u *uInode, idxs []uint64, pages []*cachePage) error {
	u.lock.RLock(env)
	blocks := u.blocks
	u.lock.RUnlock(env)
	type run struct {
		first int // index into pages
		n     int
	}
	var iov []aeodriver.IOVec
	var runs []run
	i := 0
	for i < len(pages) {
		p := idxs[i]
		if p >= uint64(len(blocks)) {
			// Beyond allocation (hole at tail): stays a zero page.
			if pages[i].data == nil {
				pages[i].data = make([]byte, BlockSize)
			}
			i++
			continue
		}
		// Extend the run while pages and LBAs are contiguous.
		j := i + 1
		for j < len(pages) {
			q := idxs[j]
			if q != idxs[j-1]+1 || q >= uint64(len(blocks)) || blocks[q] != blocks[q-1]+1 {
				break
			}
			j++
		}
		iov = append(iov, aeodriver.IOVec{
			LBA: blocks[p],
			Cnt: uint32(j - i),
			Buf: make([]byte, (j-i)*BlockSize),
		})
		runs = append(runs, run{first: i, n: j - i})
		i = j
	}
	if len(iov) == 0 {
		return nil
	}
	if err := fs.drv.ReadVBatch(env, iov); err != nil {
		return err
	}
	// Zero-copy handoff (device → cache): rebind each page's data to its
	// slice of the run buffer the DMA landed in instead of copying out.
	// Full-capacity slicing keeps a page from ever growing into its
	// neighbor's bytes. The pages are not yet visible to readers (fill
	// pending) or are pinned by the caller's range lock, so the rebinding
	// cannot race a concurrent copy-out.
	for r, v := range iov {
		first := runs[r].first
		for k := 0; k < runs[r].n; k++ {
			pages[first+k].data = v.Buf[k*BlockSize : (k+1)*BlockSize : (k+1)*BlockSize]
		}
	}
	fs.emitPath(trace.BufHandoff, trace.PathFSRead, trace.NoCID,
		iobuf.HandoffAux(iobuf.StageDev, iobuf.StageCache))
	return nil
}

func (fs *FS) writeAt(env *sim.Env, f *OpenFile, buf []byte, off uint64) (int, error) {
	if f.flags&O_ACCMODE == O_RDONLY {
		return 0, ErrBadFD
	}
	if len(buf) == 0 {
		return 0, nil
	}
	u := f.ui
	shared := fs.Trust.IsSharedIno(env, u.inoNum)
	if shared {
		// §9.4 sharing: refresh the authoritative inode (size) before
		// the write; the full page-cache rebuild happens on reads.
		fs.SharedPenalties.Add(1)
		u.lock.Lock(env)
		u.valid = false
		u.lock.Unlock(env)
		if err := fs.ensureInode(env, u); err != nil {
			return 0, err
		}
	}
	end := off + uint64(len(buf))

	// Extend the file if the write grows it.
	u.lock.Lock(env)
	oldSize := u.ino.Size
	if end > oldSize {
		added, err := fs.Trust.AppendFile(env, fs.drv, u.inoNum, end)
		if err != nil {
			u.lock.Unlock(env)
			return 0, err
		}
		u.ino.Size = end
		u.ino.Blocks += uint64(len(added))
		if u.blocksOK {
			u.blocks = append(u.blocks, added...)
		}
	}
	u.lock.Unlock(env)
	if err := fs.ensureBlocks(env, u); err != nil {
		return 0, err
	}

	p0 := off / BlockSize
	p1 := (end - 1) / BlockSize
	pc := u.pc
	cm := fs.cache

	// Fence off the epoch fast read path for the whole operation: RMW
	// pages are born filled but carry invalid data until the disk read
	// lands, and partial overwrites mutate page contents in place — states
	// the structural seq counter cannot express.
	pc.writers.Add(1)
	defer pc.writers.Add(-1)

	oldPages := (oldSize + BlockSize - 1) / BlockSize

	// Dirty throttling, then a worst-case residency reservation (hole
	// pages plus the written span), both before any range lock so the
	// charge's evictions can take their own locks.
	cm.throttleWriter(env)
	reserve := p1 - p0 + 1
	if off > oldSize {
		reserve += p0 - oldSize/BlockSize
	}
	cm.charge(env, reserve*BlockSize)
	kept := uint64(0) // pages created on our reservation

	// markDirty flips a page dirty exactly once per transition, keeping
	// the mount-wide dirty accounting (and flusher wake-ups) balanced. It
	// runs before any parking operation on the page, so eviction always
	// sees it dirty and routes it through write-back.
	markDirty := func(cp *cachePage) {
		if !cp.dirty {
			cp.dirty = true
			cm.addDirty(BlockSize)
		}
	}

	// A write that jumps past the old EOF leaves hole pages between the
	// old tail and the write start; fill them with dirty zero pages so
	// reads never observe stale contents of recycled blocks.
	if off > oldSize {
		holeStart := oldSize / BlockSize
		pc.rl.Lock(env, holeStart, p0+1, true)
		for p := holeStart; p < p0; p++ {
			cp := pc.acquireForWrite(env, p)
			if cp == nil {
				cp = &cachePage{data: make([]byte, BlockSize)}
				env.Exec(costPageAlloc)
				pc.insert(env, p, cp)
				kept++
			} else {
				// The page may hold stale device bytes (read-ahead
				// racing the extension) or the old EOF tail: its
				// logical content beyond the old size is zeros.
				valid := uint64(0)
				if s := p * BlockSize; oldSize > s {
					valid = oldSize - s
				}
				for i := valid; i < BlockSize; i++ {
					cp.data[i] = 0
				}
				cp.ioErr = nil
				cp.ra = false
			}
			markDirty(cp)
		}
		// The old tail page must be zero-extended even when it is
		// also the first written page (partial write into it).
		if holeStart == p0 && oldSize%BlockSize != 0 {
			if cp := pc.acquireForWrite(env, p0); cp != nil {
				for i := oldSize % BlockSize; i < BlockSize; i++ {
					cp.data[i] = 0
				}
				markDirty(cp)
			}
		}
		pc.rl.Unlock(env, holeStart, p0+1, true)
	}

	pc.rl.Lock(env, p0, p1+1, true)
	n := 0
	for p := p0; p <= p1; p++ {
		pageOff := 0
		if p == p0 {
			pageOff = int(off % BlockSize)
		}
		pageEnd := BlockSize
		if rem := len(buf) - n; pageOff+rem < BlockSize {
			pageEnd = pageOff + rem
		}
		cp := pc.acquireForWrite(env, p)
		if cp == nil {
			cp = &cachePage{data: make([]byte, BlockSize)}
			env.Exec(costPageAlloc)
			pc.insert(env, p, cp)
			kept++
			markDirty(cp)
			// Partial write to a page that existed before this
			// write: read-modify-write from disk. The page is dirty
			// already, so a concurrent evictor routes it through
			// write-back, which blocks on our write range lock.
			if (pageOff != 0 || pageEnd != BlockSize) && p < oldPages {
				if err := fs.readPagesFromDisk(env, u, []uint64{p}, []*cachePage{cp}); err != nil {
					cp.dirty = false
					cm.subDirty(BlockSize)
					pc.drop(env, p)
					kept--
					pc.rl.Unlock(env, p0, p1+1, true)
					cm.uncharge((reserve - kept) * BlockSize)
					return n, err
				}
				// If this page held the old EOF and the write
				// starts past it, zero the gap the disk read
				// may have filled with stale bytes.
				if tail := oldSize % BlockSize; off > oldSize && p == oldSize/BlockSize && tail != 0 {
					for i := tail; i < BlockSize; i++ {
						cp.data[i] = 0
					}
				}
			}
		} else {
			if cp.ioErr != nil {
				// A failed read-ahead left the page invalid; a full
				// overwrite fixes it, a partial one must read first.
				if pageOff == 0 && pageEnd == BlockSize {
					cp.ioErr = nil
				} else if err := fs.readPagesFromDisk(env, u, []uint64{p}, []*cachePage{cp}); err != nil {
					pc.rl.Unlock(env, p0, p1+1, true)
					cm.uncharge((reserve - kept) * BlockSize)
					return n, err
				} else {
					cp.ioErr = nil
				}
			}
			cp.ra = false
			markDirty(cp)
		}
		copy(cp.data[pageOff:pageEnd], buf[n:])
		n += pageEnd - pageOff
	}
	env.Exec(copyCost(n))
	pc.rl.Unlock(env, p0, p1+1, true)
	cm.uncharge((reserve - kept) * BlockSize)
	if cid := fs.beginChain(trace.PathFSWrite, 1); cid != trace.NoCID {
		fs.emitPath(trace.BufCopy, trace.PathFSWrite, cid, uint64(n))
	}
	fs.WritesOps.Add(1)
	fs.BytesWritten.Add(uint64(n))

	if shared {
		// §9.4: immediate fsync after each operation when sharing.
		if err := fs.fsyncInode(env, u); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Fsync persists the file's data (ordered mode: data first) and commits all
// in-memory journals (§7.4).
func (fs *FS) Fsync(env *sim.Env, fd int) error {
	f, err := fs.fdt.Get(env, fd)
	if err != nil {
		return err
	}
	return fs.fsyncInode(env, f.ui)
}

func (fs *FS) fsyncInode(env *sim.Env, u *uInode) error {
	if err := fs.flushFile(env, u); err != nil {
		return err
	}
	fs.Fsyncs.Add(1)
	return fs.Trust.Sync(env, fs.drv)
}

// flushFile writes the file's dirty pages to their data blocks, batching
// contiguous LBA runs (the fsync/close path of write-back).
func (fs *FS) flushFile(env *sim.Env, u *uInode) error {
	if u.pc == nil {
		return nil
	}
	dirty := u.pc.dirtyPages(env)
	if len(dirty) == 0 {
		return nil
	}
	return fs.writebackPages(env, u, dirty, false)
}

// writebackPages persists the given (sorted) dirty pages of u, shared by
// fsync/close, the background flusher, and dirty eviction. background
// marks flusher-driven calls: after the data lands — and before the
// journal commit that a subsequent Sync would perform — they consult the
// wb:mid-run crash point, modeling power loss between data write-back and
// commit.
func (fs *FS) writebackPages(env *sim.Env, u *uInode, dirty []uint64, background bool) error {
	if err := fs.ensureBlocks(env, u); err != nil {
		return err
	}
	u.lock.RLock(env)
	blocks := u.blocks
	u.lock.RUnlock(env)

	// Write under a read range lock over the whole span so concurrent
	// writers to these pages wait (they would redirty anyway).
	lo, hi := dirty[0], dirty[len(dirty)-1]+1
	u.pc.rl.Lock(env, lo, hi, false)
	defer u.pc.rl.Unlock(env, lo, hi, false)

	// Gather dirty contiguous-LBA runs, then persist the whole flush as
	// one vectored batch: a single gate entry and one doorbell per shard
	// instead of one submission round-trip per run. Zero-copy gather: a
	// run's scatter list references the pages' own buffers, so the device
	// DMAs straight out of the cache with no staging copy.
	//
	// The dirty list is a snapshot taken before the range lock, and the
	// other flushers (fsync, background, dirty eviction) hold compatible
	// read locks: a listed page may since have been written back and
	// evicted, cleaned, or truncated away. Such a page ends the run before
	// it and contributes nothing — its bytes are on the device already (or
	// its block is being freed), and writing anything else in its place
	// would overwrite acknowledged data.
	var iov []aeodriver.IOVec
	var runCPs [][]*cachePage
	var sg [][]byte
	var cps []*cachePage
	var last uint64 // page index of the open run's last page
	closeRun := func() {
		if len(cps) > 0 {
			first := last + 1 - uint64(len(cps))
			iov = append(iov, aeodriver.IOVec{LBA: blocks[first], Cnt: uint32(len(cps)), SG: sg})
			runCPs = append(runCPs, cps)
			sg, cps = nil, nil
		}
	}
	for _, p := range dirty {
		if p >= uint64(len(blocks)) {
			continue
		}
		cp := u.pc.lookup(env, p)
		if cp == nil || !cp.dirty {
			closeRun()
			continue
		}
		if len(cps) > 0 && (p != last+1 || blocks[p] != blocks[last]+1) {
			closeRun()
		}
		cps = append(cps, cp)
		sg = append(sg, cp.data)
		last = p
	}
	closeRun()
	if len(iov) == 0 {
		return nil
	}
	if err := fs.drv.WriteVBatch(env, iov); err != nil {
		return fmt.Errorf("flush ino %d pages [%d,%d) granted=%v refs=%d: %w",
			u.inoNum, lo, hi, u.granted, u.openRefs, err)
	}
	cm := fs.cache
	for _, v := range iov {
		cm.wbRuns.Add(1)
		cm.wbPages.Add(uint64(v.Cnt))
		cm.emit(trace.WritebackRun, trace.NoCID, v.LBA, uint64(v.Cnt))
		if cid := fs.beginChain(trace.PathWriteback, 0); cid != trace.NoCID {
			fs.emitPath(trace.BufHandoff, trace.PathWriteback, cid,
				iobuf.HandoffAux(iobuf.StageCache, iobuf.StageDev))
		}
	}
	if eng := fs.drv.Kernel().Engine(); eng.Tracer != nil {
		eng.Tracer.Emit(eng.Now(), trace.PagecacheFlush, -1, -1, trace.NoCID, iov[0].LBA, uint64(len(dirty)))
	}
	if background {
		// The data blocks are durable but nothing has committed the
		// metadata yet: the power-loss window the crash matrix probes.
		if err := fs.Trust.crash(CrashWBMidRun); err != nil {
			return err
		}
	}
	for _, cps := range runCPs {
		for _, cp := range cps {
			// Check-and-clear: a concurrent flusher (fsync vs
			// background, compatible read range locks) may have
			// cleaned the page already.
			if cp.dirty {
				cp.dirty = false
				cm.subDirty(BlockSize)
			}
		}
	}
	return nil
}

// Truncate resizes a file by path.
func (fs *FS) Truncate(env *sim.Env, path string, size uint64) error {
	ino, err := fs.namei(env, path)
	if err != nil {
		return err
	}
	u := fs.uiFor(env, ino)
	if err := fs.ensureInode(env, u); err != nil {
		return err
	}
	return fs.truncateLocked(env, u, size)
}

// FTruncate resizes an open file.
func (fs *FS) FTruncate(env *sim.Env, fd int, size uint64) error {
	f, err := fs.fdt.Get(env, fd)
	if err != nil {
		return err
	}
	return fs.truncateLocked(env, f.ui, size)
}

func (fs *FS) truncateLocked(env *sim.Env, u *uInode, size uint64) error {
	u.lock.RLock(env)
	cur := u.ino.Size
	u.lock.RUnlock(env)
	switch {
	case size == cur:
		return nil
	case size > cur:
		// The trusted layer allocates and zero-fills the grown range
		// on the device, so no unflushable dirty pages are created.
		added, err := fs.Trust.TruncateGrow(env, fs.drv, u.inoNum, size)
		if err != nil {
			return err
		}
		u.lock.Lock(env)
		u.ino.Size = size
		u.ino.Blocks += uint64(len(added))
		if u.blocksOK {
			u.blocks = append(u.blocks, added...)
		}
		u.lock.Unlock(env)
		// Keep cached pages coherent with the zeroed device range.
		if u.pc != nil {
			firstNew := cur / BlockSize
			lastNew := (size - 1) / BlockSize
			pc := u.pc
			pc.writers.Add(1)
			pc.rl.Lock(env, firstNew, lastNew+1, true)
			if tail := cur % BlockSize; tail != 0 {
				if cp := pc.lookup(env, cur/BlockSize); cp != nil {
					for i := tail; i < BlockSize; i++ {
						cp.data[i] = 0
					}
				}
			}
			pc.rl.Unlock(env, firstNew, lastNew+1, true)
			pc.writers.Add(-1)
		}
	default:
		if err := fs.Trust.TruncateFile(env, fs.drv, u.inoNum, size); err != nil {
			return err
		}
		u.lock.Lock(env)
		u.ino.Size = size
		keep := (size + BlockSize - 1) / BlockSize
		u.ino.Blocks = keep
		if u.blocksOK && uint64(len(u.blocks)) > keep {
			u.blocks = u.blocks[:keep]
		}
		u.lock.Unlock(env)
		if u.pc != nil {
			u.pc.dropFrom(env, keep)
		}
	}
	return nil
}
