package aeofs

import (
	"fmt"
	"time"

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
	// path, modelling the paper's lock-free cache reads: every tree
	// mutation brackets itself with two increments, so the counter is odd
	// while a mutation is in progress and changed if one completed. A
	// fast reader reads it (even or bail), walks the tree and copies page
	// data without locks, then revalidates; any change sends the read
	// down the locked slow path. See DESIGN.md §16.
	seq uint64

	// writers counts tasks inside a mutating file operation (writeAt,
	// truncate tail-zeroing) that may leave a page's DATA transiently
	// invalid while parked — a state the seq counter cannot see (the tree
	// itself does not change). Fast readers bail while writers != 0.
	writers int

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

	// Hits/Misses count page lookups.
	Hits, Misses uint64
}

// pageState is where a cached page is in its lifecycle (DESIGN.md §11).
// A page changes state only through to, which holds the legal edges.
//
// There is no write-back state: write-back holds the read range lock over
// its pages and writers take the write range lock, so nothing can re-dirty
// a page while its write-back is in flight, and the page simply stays
// dirty until the write lands.
type pageState uint8

const (
	// filling: the page's read is in flight and its data is not valid
	// yet; fill is pending. Every read-instantiated page is born here.
	filling pageState = iota
	// clean: the data matches the device. Write-instantiated pages are
	// born here and dirtied before anything can see them.
	clean
	// dirty: the data is newer than the device and counted in the
	// mount's dirty bytes.
	dirty
	// failed: the page's read-ahead errored and its data is not valid. A
	// demand read re-reads it; a write re-reads it unless the write
	// covers the whole page.
	failed
	// doomed: removed from the tree while its read was in flight
	// (truncate, invalidate), or its read failed or was refused. Final:
	// fill fires when the read lands, and waiters look the page up again.
	doomed
	numPageStates
)

var pageStateNames = [numPageStates]string{"filling", "clean", "dirty", "failed", "doomed"}

func (s pageState) String() string { return pageStateNames[s] }

// pageEdges[from] has bit 1<<to set for every legal edge from → to.
var pageEdges = [numPageStates]uint8{
	filling: 1<<clean | 1<<failed | 1<<doomed, // read landed, read failed, removed in flight
	clean:   1 << dirty,                       // written
	dirty:   1 << clean,                       // written back, abandoned, or discarded
	failed:  1<<clean | 1<<dirty,              // re-read, or overwritten whole
}

// cachePage is one resident (or arriving) page.
type cachePage struct {
	data  []byte
	state pageState
	// fill is the wait handle of a read-instantiated page (nil for
	// write-instantiated ones): it fires when the page leaves filling or,
	// for a doomed page, when its read lands. Readers and writers that
	// find the read in flight wait on it instead of issuing their own.
	fill *sim.Completion
	// ra marks a read-ahead page not yet consumed by a demand read; its
	// eviction counts as read-ahead waste.
	ra bool
	// ref is the CLOCK reference bit, set on every lookup hit (the epoch
	// read path sets it without locks).
	ref bool
}

// to moves the page to next, panicking on an edge pageEdges lacks. It is
// the only place a page enters or leaves dirty, so it alone moves the
// mount's dirty-byte count (and wakes the flusher on new dirt).
func (p *cachePage) to(cm *cacheManager, next pageState) {
	prev := p.state
	if pageEdges[prev]&(1<<next) == 0 {
		panic(fmt.Sprintf("aeofs: page state %v → %v is not an edge of the page lifecycle", prev, next))
	}
	p.state = next
	switch {
	case next == dirty:
		cm.addDirty(BlockSize)
	case prev == dirty:
		cm.subDirty(BlockSize)
	}
}

// land ends the page's read: a filling page becomes next (clean, or failed
// on an I/O error), a doomed one stays doomed, and the fill's waiters wake.
func (p *cachePage) land(cm *cacheManager, next pageState, now time.Duration) {
	if p.state != doomed {
		p.to(cm, next)
	}
	p.fill.FireAt(now)
}

// inFlight reports whether the page's read has not landed yet: it is
// filling, or doomed with its read still out.
func (p *cachePage) inFlight() bool { return p.fill != nil && !p.fill.Done() }

// awaitFill parks until the page's in-flight read has landed. The sleep is
// interruptible — the kernel-path delivery of any other completion on the
// task's queue pair resumes it — so it re-blocks until the fill itself has
// fired: returning early hands the caller a buffer the DMA has not written
// yet (a reader copies zeros, a writer's bytes are overwritten).
func (p *cachePage) awaitFill(env *sim.Env) {
	for p.inFlight() {
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
		pc.Misses++
		return nil
	}
	cp := v.(*cachePage)
	cp.ref = true
	pc.Hits++
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
		if cp.state == doomed {
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
	pc.seq++
	pc.tree.Set(idx, p)
	pc.seq++
	pc.treeLock.Unlock(env)
}

// drop removes page cp from the tree at idx, unless a truncate already
// removed it, without touching residency accounting (the caller owns the
// page's charge).
func (pc *pageCache) drop(env *sim.Env, idx uint64, cp *cachePage) {
	pc.treeLock.Lock(env)
	pc.seq++
	if pc.tree.Get(idx) == cp {
		pc.tree.Delete(idx)
	}
	pc.seq++
	pc.treeLock.Unlock(env)
}

// forget releases one removed page's accounting: dirty bytes, then the
// residency charge.
func (pc *pageCache) forget(cp *cachePage) {
	if cp.state == dirty {
		cp.to(pc.cm, clean)
	}
	pc.cm.uncharge(BlockSize)
}

// dropFrom removes all pages at or beyond idx: truncate, and with idx 0
// every emptying of the cache (auxiliary-state rebuild, DropCaches, inode
// drop). Dirty pages are discarded — callers drop only what the device
// already has or what no longer exists. A page whose read is in flight is
// doomed instead and stays charged: its reader (demand miss) or completion
// (read-ahead) settles the charge when the read lands.
func (pc *pageCache) dropFrom(env *sim.Env, idx uint64) {
	pc.treeLock.Lock(env)
	var gone []uint64
	pc.tree.Walk(func(i uint64, v any) bool {
		if i >= idx {
			gone = append(gone, i)
		}
		return true
	})
	pc.seq++
	for _, i := range gone {
		// A doomed page here is one its own failed read doomed; that
		// reader settles it.
		switch cp := pc.tree.Delete(i).(*cachePage); cp.state {
		case filling:
			cp.to(pc.cm, doomed)
		case clean, dirty, failed:
			pc.forget(cp)
		}
	}
	pc.seq++
	pc.treeLock.Unlock(env)
}

// dirtyPages returns the sorted indices of dirty pages.
func (pc *pageCache) dirtyPages(env *sim.Env) []uint64 {
	pc.treeLock.Lock(env)
	var out []uint64
	pc.tree.Walk(func(i uint64, v any) bool {
		if v.(*cachePage).state == dirty {
			out = append(out, i)
		}
		return true
	})
	pc.treeLock.Unlock(env)
	return out
}

// clockScan advances this file's CLOCK hand: referenced pages get their
// bit cleared (second chance); the first unreferenced page that is not
// filling or doomed is returned. Returns (0, nil) when the sweep reaches
// the end of the tree — the caller resets clockPos and moves to the next
// file. Runs in engine context without parking, so the tree cannot change
// mid-scan.
func (pc *pageCache) clockScan() (uint64, *cachePage) {
	var idx uint64
	var found *cachePage
	pc.tree.Walk(func(i uint64, v any) bool {
		if i < pc.clockPos {
			return true
		}
		cp := v.(*cachePage)
		if cp.state == filling || cp.state == doomed {
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
