package aeofs

import (
	"fmt"

	"aeolia/internal/sim"
)

// HasUI reports whether the FS still caches auxiliary state (granted flags,
// page cache, dentry cache) for ino. Test-only regression hook for the
// rename-overwrite stale-state fix: a destroyed inode number must not keep
// a uInode behind, or its eventual reuse inherits the stale state.
func (fs *FS) HasUI(ino uint64) bool {
	sh := &fs.ishards[ino%uint64(len(fs.ishards))]
	return sh.m[ino] != nil
}

// HoldWriters adds delta to pc.writers of every file open on the mount. While
// the count is pinned above zero, fastReadAt bails and reads take the locked
// slow path — the reference TestFastReadEquivalence compares the epoch hit
// path against.
func (fs *FS) HoldWriters(delta int64) {
	for _, pc := range fs.cache.files {
		pc.writers.Add(delta)
	}
}

// PrefetchFrom puts the file's read-ahead window at window pages and tops
// the pipeline up past page last, as a sequential read ending at last would
// have: pages last+1 .. last+window go out as read-ahead commands and are
// in flight when it returns.
func (fs *FS) PrefetchFrom(env *sim.Env, fd int, last uint64, window int) error {
	f, err := fs.fdt.Get(env, fd)
	if err != nil {
		return err
	}
	if err := fs.ensureBlocks(env, f.ui); err != nil {
		return err
	}
	f.ui.pc.raWindow = window
	fs.issueReadahead(env, f.ui, last)
	return nil
}

// FlushAcrossEviction replays the interleaving of a flusher and a dirty
// eviction on one file: the flusher takes its list of dirty pages, the CLOCK
// hand reclaims page idx (write-back, then drop), and the flusher resumes
// with the list it took.
func (fs *FS) FlushAcrossEviction(env *sim.Env, fd int, idx uint64) error {
	f, err := fs.fdt.Get(env, fd)
	if err != nil {
		return err
	}
	pc, cm := f.ui.pc, fs.cache
	dirty := pc.dirtyPages(env)
	cm.budgetMu.Lock(env)
	ok := cm.reclaimPage(env, pc, idx, pc.peek(idx))
	cm.budgetMu.Unlock(env)
	if !ok {
		return fmt.Errorf("page %d was not reclaimed", idx)
	}
	return fs.writebackPages(env, f.ui, dirty, true)
}

// PageCounts counts the pages in the trees of every file open on the mount,
// and those of them that are dirty: quiescent, CacheStats.ResidentBytes and
// DirtyBytes are these counts in bytes.
func (fs *FS) PageCounts() (resident, dirtyPages uint64) {
	for _, pc := range fs.cache.files {
		pc.tree.Walk(func(_ uint64, v any) bool {
			resident++
			if v.(*cachePage).state == dirty {
				dirtyPages++
			}
			return true
		})
	}
	return resident, dirtyPages
}

// Reclaim runs the CLOCK hand's reclaim of page idx of the file, as an
// eviction that picked it would: write-back if dirty, then the drop. It
// reports whether the page was evicted.
func (fs *FS) Reclaim(env *sim.Env, fd int, idx uint64) (bool, error) {
	f, err := fs.fdt.Get(env, fd)
	if err != nil {
		return false, err
	}
	pc, cm := f.ui.pc, fs.cache
	cm.budgetMu.Lock(env)
	defer cm.budgetMu.Unlock(env)
	return cm.reclaimPage(env, pc, idx, pc.peek(idx)), nil
}
