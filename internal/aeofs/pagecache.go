package aeofs

import (
	"sync/atomic"

	"aeolia/internal/sim"
)

// pageCache is a regular file's page cache (§7.2): a radix tree mapping
// page index to cached page, protected by a readers-writer range lock so
// concurrent reads may overlap and concurrent writes to disjoint pages
// proceed in parallel. Tree structure mutations take a short spinlock-like
// mutex; data copies happen under the range lock only.
//
// Residency accounting and eviction live in the mount-wide cacheManager;
// the pageCache carries only per-file state: the tree, the CLOCK hand's
// position within this file, and the sequential read-ahead detector.
type pageCache struct {
	rl       rangeLock
	treeLock ordMutex
	tree     radixTree

	// seq is the epoch counter of the lock-free (seqlock-style) read
	// path: every tree mutation brackets itself with two increments, so
	// the counter is odd while a mutation is in progress and changed if
	// one completed. A fast reader loads it (even or bail), walks the
	// tree and copies page data without locks, then revalidates; any
	// change sends the read down the locked slow path. See DESIGN.md §16.
	seq atomic.Uint64

	// writers counts tasks inside a mutating file operation (writeAt,
	// truncate tail-zeroing) that may leave a page's DATA transiently
	// invalid while parked — a state the seq counter cannot see (the tree
	// itself does not change). Fast readers bail while writers != 0.
	writers atomic.Int64

	cm    *cacheManager
	owner *uInode

	// clockPos is the next page index the eviction CLOCK examines in this
	// file (wraps to 0 when a sweep reaches the end of the tree).
	clockPos uint64

	// Sequential-stream state, mutated only by readAt. raNext is the page
	// a read must start at to extend the detected stream; raIssued is the
	// high-water mark of pages already submitted ahead; raRun is the
	// stream's proven length, the pages read in sequence since a read last
	// broke it; raWindow is the adaptive window in pages (doubled on a
	// read-ahead hit while 2*raWindow <= raRun, halved on waste, clamped
	// to [initReadahead, MaxReadahead]).
	raNext   uint64
	raIssued uint64
	raRun    uint64
	raWindow int

	// Hits/Misses count page lookups. Atomic: lookup bumps them outside
	// treeLock, and the race tier runs concurrent readers.
	Hits, Misses atomic.Uint64
}

// cachePage is one resident (or arriving) page.
type cachePage struct {
	data  []byte
	dirty bool
	// fill is non-nil while the page's contents are being read in; readers
	// that find an unfilled page block on it instead of issuing duplicate
	// I/O. Write-instantiated pages are born filled (fill == nil).
	fill *sim.Completion
	// doomed marks a page removed from the tree while its fill was still
	// in flight (truncate, invalidate, failed I/O); waiters re-look-up.
	doomed bool
	// ra marks a read-ahead page not yet consumed by a demand read; its
	// eviction counts as read-ahead waste.
	ra bool
	// ref is the CLOCK reference bit, set on every lookup hit.
	ref bool
	// ioErr records a failed asynchronous fill; the first waiter clears
	// it by re-reading the page synchronously.
	ioErr error
}

// filled reports whether the page's contents are valid.
func (p *cachePage) filled() bool { return p.fill == nil || p.fill.Done() }

// awaitFill parks until the page's in-flight fill has landed. The sleep is
// interruptible — the kernel-path delivery of any other completion on the
// task's queue pair resumes it — so it re-blocks until the fill itself has
// fired: returning early hands the caller a buffer the DMA has not written
// yet (a reader copies zeros, a writer's bytes are overwritten).
func (p *cachePage) awaitFill(env *sim.Env) {
	for !p.filled() {
		env.BlockOn(p.fill)
	}
}

func newPageCache(cm *cacheManager, owner *uInode) *pageCache {
	pc := &pageCache{cm: cm, owner: owner}
	pc.treeLock.lvl = levelTree
	return pc
}

// advanceStream records a completed read of pages [p0, p1] in the
// sequential-stream detector; seq says whether it extended the stream. A
// read that breaks the stream starts a new one at the initial window.
func (pc *pageCache) advanceStream(seq bool, p0, p1 uint64) {
	if !seq {
		pc.raWindow = pc.cm.cfg.startWindow()
		pc.raIssued = 0
		pc.raRun = 0
	}
	pc.raRun += p1 - p0 + 1
	pc.raNext = p1 + 1
}

// peek is the lock-free tree read of the epoch fast path: no virtual-time
// cost, no treeLock, no reference-bit update. Callers must validate seq
// around the whole walk.
func (pc *pageCache) peek(idx uint64) *cachePage {
	v := pc.tree.Get(idx)
	if v == nil {
		return nil
	}
	return v.(*cachePage)
}

// lookup returns the cached page or nil, setting the CLOCK reference bit
// on a hit. It is the locked walk of the slow path (misses, writers,
// read-ahead bookkeeping); all-resident reads go through fastReadAt. The
// radix descent is charged before the lock, so the hold is zero-cost and
// concurrent lookups do not serialize.
func (pc *pageCache) lookup(env *sim.Env, idx uint64) *cachePage {
	env.Exec(costRadixLookup)
	pc.treeLock.Lock(env)
	v := pc.tree.Get(idx)
	pc.treeLock.Unlock(env)
	if v == nil {
		pc.Misses.Add(1)
		return nil
	}
	cp := v.(*cachePage)
	cp.ref = true
	pc.Hits.Add(1)
	return cp
}

// acquireForWrite returns the cached page at idx with any in-flight fill
// waited out (a write must not race the DMA landing in the same buffer),
// or nil if the page is absent. Doomed pages are re-looked-up.
func (pc *pageCache) acquireForWrite(env *sim.Env, idx uint64) *cachePage {
	for {
		cp := pc.lookup(env, idx)
		if cp == nil {
			return nil
		}
		cp.awaitFill(env)
		if cp.doomed {
			continue
		}
		return cp
	}
}

// insert caches a page. The caller must have charged the cacheManager for
// it beforehand.
func (pc *pageCache) insert(env *sim.Env, idx uint64, p *cachePage) {
	env.Exec(costRadixLookup)
	pc.treeLock.Lock(env)
	pc.seq.Add(1)
	pc.tree.Set(idx, p)
	pc.seq.Add(1)
	pc.treeLock.Unlock(env)
}

// drop removes a page from the tree without touching residency accounting
// (the caller owns the page's charge).
func (pc *pageCache) drop(env *sim.Env, idx uint64) {
	pc.treeLock.Lock(env)
	pc.seq.Add(1)
	pc.tree.Delete(idx)
	pc.seq.Add(1)
	pc.treeLock.Unlock(env)
}

// forget releases one removed page's accounting: dirty bytes, then the
// residency charge. Unfilled pages stay charged — their in-flight fill
// callback (read-ahead) or issuing reader (demand miss) settles the charge
// when the I/O lands — so the caller must mark them doomed instead.
func (pc *pageCache) forget(cp *cachePage) {
	if cp.dirty {
		cp.dirty = false
		pc.cm.subDirty(BlockSize)
	}
	pc.cm.uncharge(BlockSize)
}

// dropAll empties the cache (auxiliary-state rebuild). Dirty pages are
// discarded — callers invalidate only when the on-disk state is already
// authoritative.
func (pc *pageCache) dropAll(env *sim.Env) {
	pc.treeLock.Lock(env)
	var pages []*cachePage
	pc.tree.Walk(func(i uint64, v any) bool {
		pages = append(pages, v.(*cachePage))
		return true
	})
	pc.seq.Add(1)
	pc.tree = radixTree{}
	pc.seq.Add(1)
	pc.treeLock.Unlock(env)
	for _, cp := range pages {
		if !cp.filled() {
			cp.doomed = true
			continue
		}
		pc.forget(cp)
	}
}

// dropFrom removes all pages at or beyond idx (truncate).
func (pc *pageCache) dropFrom(env *sim.Env, idx uint64) {
	pc.treeLock.Lock(env)
	var doomed []uint64
	var pages []*cachePage
	pc.tree.Walk(func(i uint64, v any) bool {
		if i >= idx {
			doomed = append(doomed, i)
			pages = append(pages, v.(*cachePage))
		}
		return true
	})
	pc.seq.Add(1)
	for _, i := range doomed {
		pc.tree.Delete(i)
	}
	pc.seq.Add(1)
	pc.treeLock.Unlock(env)
	for _, cp := range pages {
		if !cp.filled() {
			cp.doomed = true
			continue
		}
		pc.forget(cp)
	}
}

// dirtyPages returns the sorted indices of dirty pages.
func (pc *pageCache) dirtyPages(env *sim.Env) []uint64 {
	pc.treeLock.Lock(env)
	var out []uint64
	pc.tree.Walk(func(i uint64, v any) bool {
		if v.(*cachePage).dirty {
			out = append(out, i)
		}
		return true
	})
	pc.treeLock.Unlock(env)
	return out
}

// pages returns the number of cached pages.
func (pc *pageCache) pages(env *sim.Env) int {
	pc.treeLock.Lock(env)
	n := pc.tree.Len()
	pc.treeLock.Unlock(env)
	return n
}

// clockScan advances this file's CLOCK hand: referenced pages get their
// bit cleared (second chance); the first unreferenced, filled, undoomed
// page is returned. Returns (0, nil) when the sweep reaches the end of the
// tree — the caller resets clockPos and moves to the next file. Runs in
// engine context without parking, so the tree cannot change mid-scan.
func (pc *pageCache) clockScan() (uint64, *cachePage) {
	var idx uint64
	var found *cachePage
	pc.tree.Walk(func(i uint64, v any) bool {
		if i < pc.clockPos {
			return true
		}
		cp := v.(*cachePage)
		if !cp.filled() || cp.doomed {
			return true
		}
		if cp.ref {
			cp.ref = false
			return true
		}
		idx, found = i, cp
		return false
	})
	if found != nil {
		pc.clockPos = idx + 1
	}
	return idx, found
}
