package aeofs

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
