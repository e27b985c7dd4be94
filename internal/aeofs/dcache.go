package aeofs

import (
	"aeolia/internal/dcache"
	"aeolia/internal/sim"
)

// dentCache is the per-directory resizable chained concurrent hash table of
// §7.2: it maps a file name to the cached directory entry. Each bucket has
// its own readers-writer lock, allowing concurrent lookups while minimizing
// insert/delete contention. Resizing locks every bucket — the rehash
// bottleneck the paper's Figure 16 analysis calls out.
//
// The hash and growth policy live in internal/dcache (shared with the
// aeomds namespace shards); this wrapper adds the per-bucket sim locking
// and virtual-time costs. It caches no negative entries on purpose: a miss
// here always falls through to the trusted layer, so a stale "not found"
// can never be served — the MDS variant does cache negatives and owns the
// matching invalidation rules.
type dentCache struct {
	buckets []dentBucket
	count   int
	// resizing serializes growth; lookups during a resize queue on the
	// bucket locks the resizer holds.
	resizing sim.Mutex

	// seq is the epoch counter of the lock-free lookup (same discipline as
	// pageCache.seq): odd while any mutation — entry insert/remove/update
	// or a grow's bucket-array swap — is in progress, changed if one
	// completed during a lock-free probe.
	seq uint64

	// Rehashes counts completed grow operations (for the ablation).
	Rehashes uint64
}

type dentBucket struct {
	lock    sim.RWMutex
	entries []dentEntry
}

type dentEntry struct {
	name string
	ino  uint64
}

// newDentCache creates a directory's dentry cache.
func newDentCache() *dentCache {
	return &dentCache{buckets: make([]dentBucket, dcache.InitBuckets)}
}

// dentHash delegates to the shared FNV-64a hash so this wrapper and the
// MDS shards agree on bucket layout.
func dentHash(name string) uint64 { return dcache.Hash(name) }

func (c *dentCache) bucket(name string) *dentBucket {
	return &c.buckets[dentHash(name)%uint64(len(c.buckets))]
}

// Lookup returns the cached inode number for name (0 = not cached). The
// virtual-time cost is the same on both paths — the fast path's win is
// avoiding the bucket lock (and the stall behind a resizer holding every
// bucket), not a cheaper probe.
func (c *dentCache) Lookup(env *sim.Env, name string) (uint64, bool) {
	env.Exec(costHashProbe)
	if ino, ok, done := c.fastLookup(name); done {
		return ino, ok
	}
	b := c.bucket(name)
	b.lock.RLock(env)
	defer b.lock.RUnlock(env)
	for _, e := range b.entries {
		if e.name == name {
			return e.ino, true
		}
	}
	return 0, false
}

// fastLookup is the epoch lock-free probe: scan a snapshot of the bucket
// with no lock, then validate that no mutation started or completed around
// the scan. A validated miss is trustworthy because the table caches no
// negatives — the caller falls through to the trusted layer either way.
// done=false sends the lookup down the locked path.
func (c *dentCache) fastLookup(name string) (ino uint64, ok, done bool) {
	s0 := c.seq
	if s0&1 != 0 {
		return 0, false, false
	}
	buckets := c.buckets
	b := &buckets[dentHash(name)%uint64(len(buckets))]
	for _, e := range b.entries {
		if e.name == name {
			ino, ok = e.ino, true
			break
		}
	}
	if c.seq != s0 {
		return 0, false, false
	}
	return ino, ok, true
}

// Insert adds or updates a cached entry, growing the table past the load
// factor.
func (c *dentCache) Insert(env *sim.Env, name string, ino uint64) {
	env.Exec(costHashProbe)
	b := c.bucket(name)
	b.lock.Lock(env)
	c.seq++
	for i := range b.entries {
		if b.entries[i].name == name {
			b.entries[i].ino = ino
			c.seq++
			b.lock.Unlock(env)
			return
		}
	}
	b.entries = append(b.entries, dentEntry{name, ino})
	c.count++
	c.seq++
	grow := dcache.NeedGrow(c.count, len(c.buckets))
	b.lock.Unlock(env)
	if grow {
		c.grow(env)
	}
}

// Remove deletes a cached entry.
func (c *dentCache) Remove(env *sim.Env, name string) {
	env.Exec(costHashProbe)
	b := c.bucket(name)
	b.lock.Lock(env)
	defer b.lock.Unlock(env)
	for i := range b.entries {
		if b.entries[i].name == name {
			c.seq++
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			c.count--
			c.seq++
			return
		}
	}
}

// Len returns the number of cached entries.
func (c *dentCache) Len() int { return c.count }

// grow doubles the bucket array. It write-locks every bucket, so concurrent
// operations on the directory stall for the duration — the contention the
// paper identifies as AeoFS's eventual metadata-scalability limit.
func (c *dentCache) grow(env *sim.Env) {
	c.resizing.Lock(env)
	if !dcache.NeedGrow(c.count, len(c.buckets)) {
		c.resizing.Unlock(env)
		return // someone else grew it first
	}
	old := c.buckets
	for i := range old {
		old[i].lock.Lock(env)
	}
	// Rehash cost is proportional to the table size.
	env.Exec(scaled(costRehashPerEntry, c.count))
	next := make([]dentBucket, len(old)*2)
	for i := range old {
		for _, e := range old[i].entries {
			nb := &next[dentHash(e.name)%uint64(len(next))]
			nb.entries = append(nb.entries, e)
		}
	}
	c.seq++
	c.buckets = next
	c.seq++
	c.Rehashes++
	for i := range old {
		old[i].lock.Unlock(env)
	}
	c.resizing.Unlock(env)
}
