package aeofs

import (
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

// CacheConfig tunes the mount-wide memory-bounded page cache. The zero
// value is unbounded residency, write-back only at fsync/close, and
// sequential read-ahead with a window of up to defaultMaxReadahead pages.
type CacheConfig struct {
	// CacheBytes is the global residency budget shared by every file of
	// the mount; the CLOCK hand evicts to stay within it. 0 = unbounded.
	CacheBytes uint64
	// MaxReadahead is the largest sequential read-ahead window in pages;
	// 0 means defaultMaxReadahead. Read-ahead is the read path of every
	// mount: a negative value switches it off, and exists only so that
	// fig_cache can measure its named "off" baseline (DESIGN.md §17).
	MaxReadahead int
	// DirtyHighWater wakes the background flusher as soon as dirty bytes
	// cross it. Defaults to CacheBytes/4 when the cache is bounded.
	DirtyHighWater uint64
	// DirtyHardLimit blocks writers while dirty bytes exceed it (dirty
	// throttling). Defaults to CacheBytes/2 when the cache is bounded.
	DirtyHardLimit uint64
	// FlushInterval is the periodic flusher cadence while dirty pages
	// exist below the high-water mark. Default 1ms when write-back is on.
	FlushInterval time.Duration
	// FlusherCore selects the simulated core the flusher thread runs on
	// (modulo the machine's core count).
	FlusherCore int
}

const (
	// initReadahead is the window (in pages) a freshly detected sequential
	// stream starts with; the window doubles on read-ahead hits while the
	// stream has proven itself twice as long (pageCache.raRun) and halves
	// on waste, clamped to [startWindow(), MaxReadahead].
	initReadahead = 4
	// defaultMaxReadahead is the window cap of a mount that does not set
	// one.
	defaultMaxReadahead = 32
	// readaheadChunk caps the pages per read-ahead command, so one window
	// arrives as several completions and the reader can start consuming
	// before the whole window lands.
	readaheadChunk = 8
)

// startWindow is initReadahead clamped to MaxReadahead.
func (c CacheConfig) startWindow() int { return min(initReadahead, c.MaxReadahead) }

// withDefaults derives the dependent thresholds.
func (c CacheConfig) withDefaults() CacheConfig {
	if c.MaxReadahead == 0 {
		c.MaxReadahead = defaultMaxReadahead
	}
	if c.CacheBytes > 0 {
		if c.DirtyHighWater == 0 {
			c.DirtyHighWater = c.CacheBytes / 4
		}
		if c.DirtyHardLimit == 0 {
			c.DirtyHardLimit = c.CacheBytes / 2
		}
	}
	if (c.DirtyHighWater > 0 || c.DirtyHardLimit > 0) && c.FlushInterval == 0 {
		c.FlushInterval = time.Millisecond
	}
	return c
}

// writebackEnabled reports whether a background flusher should run.
func (c CacheConfig) writebackEnabled() bool {
	return c.DirtyHighWater > 0 || c.DirtyHardLimit > 0 || c.FlushInterval > 0
}

// CacheStats is a point-in-time snapshot of the mount's cache counters.
type CacheStats struct {
	Hits, Misses uint64
	// FastReads counts reads completed by the epoch lock-free hit path.
	FastReads                 uint64
	Evictions, DirtyEvictions uint64
	ReadaheadIssued           uint64 // pages submitted ahead
	ReadaheadHits             uint64 // read-ahead pages consumed by demand reads
	ReadaheadWaste            uint64 // read-ahead pages evicted unused
	WritebackRuns             uint64 // contiguous dirty runs written (fsync + background)
	WritebackPages            uint64
	WritebackErrors           uint64 // background runs abandoned on I/O error
	Throttled                 uint64 // writer blocks on the dirty hard limit
	ResidentBytes             uint64
	ResidentHWM               uint64 // high-water mark of resident bytes
	DirtyBytes                uint64
}

// cacheManager is the mount-wide residency accountant: it owns the byte
// budget, the CLOCK eviction hand, the dirty counters the flusher and
// write throttle key off, and the registry of per-file pageCaches the
// hand sweeps.
type cacheManager struct {
	fs  *FS
	cfg CacheConfig
	eng *sim.Engine

	// budgetMu serializes whole charge cycles (evict-until-room, then
	// add), so concurrent chargers cannot interleave past the budget.
	//
	// Lock order: budgetMu → rangeLock → treeLock. budgetMu is the
	// OUTERMOST lock of the hierarchy: a charge holding it evicts, and
	// eviction's write-back takes range locks and tree locks below it.
	// Consequently every charge happens BEFORE its caller takes any
	// range lock (readAt/writeAt reserve worst-case up front and refund
	// after the walk), and no rangeLock or treeLock holder may ever
	// wait on budgetMu. The order is enforced by the debug assertion in
	// lockcheck.go (SetLockOrderCheck); TestLockOrderAssertion covers
	// both directions. Epoch readers (fastReadAt, dentry fast lookup)
	// take none of these locks — see DESIGN.md §16.
	budgetMu ordMutex

	// stats holds the mount's counters. Its Hits and Misses count only
	// unregistered files' lookups; snapshot adds the live files'.
	stats CacheStats

	// files is the sweep's registry and hand its position in it.
	// register and unregister change files without budgetMu, so a sweep
	// re-reads its length after every park (DESIGN.md §11).
	files []*pageCache
	hand  int

	// flusher lifecycle (see writeback.go).
	flusherOn bool
	wbDead    bool
	wake      sim.WaitQueue
	throttle  sim.WaitQueue

	budgetEmitted bool
}

func newCacheManager(fs *FS, cfg CacheConfig) *cacheManager {
	cm := &cacheManager{
		fs:  fs,
		cfg: cfg.withDefaults(),
	}
	if fs != nil {
		cm.eng = fs.drv.Kernel().Engine()
		if fs.drv.Mode() == aeodriver.ModePoll {
			// Read-ahead is fire-and-forget: nobody waits on the request,
			// so its completion must announce itself. A polling driver has
			// no notification — a reader parked on the arriving page would
			// never see it land.
			cm.cfg.MaxReadahead = -1
		}
	}
	cm.budgetMu.lvl = levelBudget
	return cm
}

// register adds a file's pageCache to the eviction sweep.
func (cm *cacheManager) register(pc *pageCache) { cm.files = append(cm.files, pc) }

// unregister removes a file from the sweep and releases its pages'
// accounting (the uInode is being dropped).
func (cm *cacheManager) unregister(env *sim.Env, pc *pageCache) {
	for i, f := range cm.files {
		if f == pc {
			cm.files = append(cm.files[:i], cm.files[i+1:]...)
			break
		}
	}
	cm.stats.Hits += pc.Hits
	cm.stats.Misses += pc.Misses
	pc.dropFrom(env, 0)
}

// emit traces a cache event when tracing is on.
func (cm *cacheManager) emit(typ trace.Type, cid uint32, lba, aux uint64) {
	if cm.eng.Tracer == nil {
		return
	}
	cm.eng.Tracer.Emit(cm.eng.Now(), typ, -1, -1, cid, lba, aux)
}

// account adds bytes to the residency counters and traces the insertion.
// Bounded mounts announce their budget before the first charge so the
// analyzer can check CacheInsert events against it.
func (cm *cacheManager) account(bytes uint64) {
	s := &cm.stats
	s.ResidentBytes += bytes
	s.ResidentHWM = max(s.ResidentHWM, s.ResidentBytes)
	if cm.cfg.CacheBytes == 0 {
		return
	}
	if !cm.budgetEmitted {
		cm.budgetEmitted = true
		cm.emit(trace.CacheBudget, trace.NoCID, 0, cm.cfg.CacheBytes)
	}
	cm.emit(trace.CacheInsert, trace.NoCID, bytes/BlockSize, s.ResidentBytes)
}

// uncharge releases a residency reservation (refund of an unused charge,
// or a page leaving the cache), clamped at zero so an over-refund cannot
// wrap the counter.
func (cm *cacheManager) uncharge(bytes uint64) {
	cm.stats.ResidentBytes -= min(bytes, cm.stats.ResidentBytes)
}

// makeRoom evicts until bytes fit under the budget. Caller holds
// budgetMu. Returns false when nothing more is evictable and the charge
// does not fit; force admits it over budget anyway (demand pages must
// make progress even with a degenerate budget — tests size budgets so
// this never fires).
func (cm *cacheManager) makeRoom(env *sim.Env, bytes uint64, force bool) bool {
	for cm.stats.ResidentBytes+bytes > cm.cfg.CacheBytes {
		if !cm.evictOne(env) {
			return force
		}
	}
	return true
}

// charge reserves bytes of residency for pages about to be inserted,
// evicting as needed. Unused reservation must be returned via uncharge.
func (cm *cacheManager) charge(env *sim.Env, bytes uint64) {
	if bytes == 0 {
		return
	}
	if cm.cfg.CacheBytes == 0 {
		cm.account(bytes)
		return
	}
	cm.budgetMu.Lock(env)
	cm.makeRoom(env, bytes, true)
	cm.account(bytes)
	cm.budgetMu.Unlock(env)
}

// tryCharge is charge for speculative (read-ahead) pages: if eviction
// cannot make room, the charge is declined instead of overshooting.
func (cm *cacheManager) tryCharge(env *sim.Env, bytes uint64) bool {
	if bytes == 0 {
		return true
	}
	if cm.cfg.CacheBytes == 0 {
		cm.account(bytes)
		return true
	}
	cm.budgetMu.Lock(env)
	ok := cm.makeRoom(env, bytes, false)
	if ok {
		cm.account(bytes)
	}
	cm.budgetMu.Unlock(env)
	return ok
}

// evictOne runs the CLOCK hand until one page is reclaimed. Caller holds
// budgetMu. The sweep bound covers two full passes (the first clears
// reference bits) plus slack for candidates lost to races. reclaimPage
// parks, and files may leave the sweep meanwhile (unregister does not take
// budgetMu), so the sweep re-reads the list's length after each reclaim
// that fails (DESIGN.md §11).
func (cm *cacheManager) evictOne(env *sim.Env) bool {
	nf := len(cm.files)
	if nf == 0 {
		return false
	}
	for sweep := 0; sweep < 2*nf+2; sweep++ {
		f := cm.files[cm.hand%nf]
		idx, cp := f.clockScan()
		if cp == nil {
			f.clockPos = 0
			cm.hand++
			if nf = len(cm.files); nf == 0 {
				return false
			}
			continue
		}
		if cm.reclaimPage(env, f, idx, cp) {
			return true
		}
		if nf = len(cm.files); nf == 0 {
			return false
		}
	}
	return false
}

// reclaimPage evicts one CLOCK victim: dirty pages are written back
// first (never silently lost), then the page is dropped if nothing
// changed while the write-back parked.
func (cm *cacheManager) reclaimPage(env *sim.Env, f *pageCache, idx uint64, cp *cachePage) bool {
	wasDirty := cp.state == dirty
	if wasDirty {
		if err := cm.fs.writebackPages(env, f.owner, []uint64{idx}, false); err != nil {
			return false
		}
	}
	f.treeLock.Lock(env)
	if f.tree.Get(idx) != cp || (cp.state != clean && cp.state != failed) {
		// The page vanished or was redirtied while the write-back
		// parked: not a safe victim any more.
		f.treeLock.Unlock(env)
		return false
	}
	f.seq++
	f.tree.Delete(idx)
	f.seq++
	f.treeLock.Unlock(env)
	cm.uncharge(BlockSize)
	cm.stats.Evictions++
	lba := ^uint64(0)
	if blocks := f.owner.blocks; f.owner.blocksOK && idx < uint64(len(blocks)) {
		lba = blocks[idx]
	}
	cid := uint32(0)
	if wasDirty {
		cid = 1
		cm.stats.DirtyEvictions++
	}
	if cp.ra {
		// Evicted before any demand read used it: the read-ahead was
		// wasted — shrink the owning file's window.
		cm.stats.ReadaheadWaste++
		f.raWindow = max(f.raWindow/2, cm.cfg.startWindow())
		if cm.cfg.MaxReadahead > 0 {
			cm.emit(trace.ReadaheadWaste, trace.NoCID, lba, idx)
		}
	}
	cm.emit(trace.CacheEvict, cid, lba, cm.stats.ResidentBytes)
	return true
}

// addDirty accounts freshly dirtied bytes and kicks the flusher. Only
// cachePage.to calls it.
func (cm *cacheManager) addDirty(bytes uint64) {
	cm.stats.DirtyBytes += bytes
	if cm.cfg.writebackEnabled() && !cm.wbDead {
		cm.ensureFlusher()
		cm.wake.Signal(cm.eng)
	}
}

// subDirty accounts bytes cleaned (or discarded) from the dirty set,
// clamped at zero. Only cachePage.to calls it.
func (cm *cacheManager) subDirty(bytes uint64) {
	cm.stats.DirtyBytes -= min(bytes, cm.stats.DirtyBytes)
}

// throttleWriter blocks the calling writer while dirty bytes exceed the
// hard limit, letting the flusher drain (dirty throttling). A dead
// flusher (crash injection) lifts the throttle so the workload can reach
// its own crash handling.
func (cm *cacheManager) throttleWriter(env *sim.Env) {
	lim := cm.cfg.DirtyHardLimit
	if lim == 0 {
		return
	}
	for cm.stats.DirtyBytes > lim && !cm.wbDead {
		cm.stats.Throttled++
		cm.ensureFlusher()
		cm.wake.Signal(cm.eng)
		cm.throttle.Wait(env)
	}
}

// snapshot builds the exported counter view.
func (cm *cacheManager) snapshot() CacheStats {
	s := cm.stats
	for _, f := range cm.files {
		s.Hits += f.Hits
		s.Misses += f.Misses
	}
	return s
}
