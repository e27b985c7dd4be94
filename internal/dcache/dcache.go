// Package dcache is the resizable chained hash table behind directory-entry
// caching, extracted from internal/aeofs's per-directory dentry cache (§7.2)
// so the sharded metadata service (internal/aeomds) reuses the same
// structure and growth policy for its namespace shards. The package is
// simulation-free: no sim locks and no virtual-time costs — aeofs keeps its
// per-bucket readers-writer locking and Exec accounting in its own wrapper,
// while aeomds shards are single-owner CSP tasks that need neither.
//
// Beyond the extraction, Table supports negative entries (a cached "name
// does not exist"), which the aeofs wrapper deliberately does not use:
// its misses always fall through to the trusted layer. The MDS is the
// namespace's owner, so it can cache negatives safely as long as every
// create/rename into the directory clears them — Insert does exactly that,
// and the stale-negative regression test pins it.
package dcache

import "aeolia/internal/mix"

const (
	// InitBuckets is the initial bucket count of a fresh table.
	InitBuckets = 16
	// MaxLoad is the entries-per-bucket threshold that triggers a grow —
	// the rehash bottleneck the paper's Figure 16 analysis calls out.
	MaxLoad = 4
)

// Hash is the bucket hash (FNV-64a), shared by aeofs's dentry cache and
// the MDS shards so their layouts agree.
func Hash(name string) uint64 { return mix.FNV1a64(name) }

// NeedGrow reports whether a table holding count entries across buckets
// buckets has passed the load threshold.
func NeedGrow(count, buckets int) bool { return count > MaxLoad*buckets }

// Entry is one cached directory entry. Neg marks a negative entry: the
// name is known NOT to exist (Ino is 0 then).
type Entry struct {
	Name string
	Ino  uint64
	Neg  bool
}

// Table maps names to inode numbers with chained buckets that double past
// the load factor. Zero value is not usable; call New.
type Table struct {
	buckets [][]Entry
	count   int

	// Rehashes counts completed grow operations (for ablations and the
	// MDS shard cost model).
	Rehashes uint64
}

// New returns an empty table with InitBuckets buckets.
func New() *Table {
	return &Table{buckets: make([][]Entry, InitBuckets)}
}

func (t *Table) bucket(name string) *[]Entry {
	return &t.buckets[Hash(name)%uint64(len(t.buckets))]
}

// Lookup returns the entry for name. ok is false when the name is not
// cached at all; neg is true for a cached negative (ino is 0 then).
func (t *Table) Lookup(name string) (ino uint64, neg, ok bool) {
	for _, e := range *t.bucket(name) {
		if e.Name == name {
			return e.Ino, e.Neg, true
		}
	}
	return 0, false, false
}

// Insert adds or updates a positive entry, clearing any negative entry for
// the name and growing the table past the load factor.
func (t *Table) Insert(name string, ino uint64) {
	b := t.bucket(name)
	for i := range *b {
		if (*b)[i].Name == name {
			(*b)[i].Ino = ino
			(*b)[i].Neg = false
			return
		}
	}
	*b = append(*b, Entry{Name: name, Ino: ino})
	t.count++
	if NeedGrow(t.count, len(t.buckets)) {
		t.grow()
	}
}

// InsertNegative records that name does not exist. A later Insert for the
// name flips the entry positive.
func (t *Table) InsertNegative(name string) {
	b := t.bucket(name)
	for i := range *b {
		if (*b)[i].Name == name {
			(*b)[i].Ino = 0
			(*b)[i].Neg = true
			return
		}
	}
	*b = append(*b, Entry{Name: name, Neg: true})
	t.count++
	if NeedGrow(t.count, len(t.buckets)) {
		t.grow()
	}
}

// Remove deletes the entry (positive or negative) for name, reporting
// whether it was present.
func (t *Table) Remove(name string) bool {
	b := t.bucket(name)
	for i := range *b {
		if (*b)[i].Name == name {
			*b = append((*b)[:i], (*b)[i+1:]...)
			t.count--
			return true
		}
	}
	return false
}

// Len returns the number of cached entries, negatives included.
func (t *Table) Len() int { return t.count }

// Range calls fn for every entry until it returns false. Iteration order
// is bucket order — deterministic for a given insert history, but not
// sorted; callers that need stable output sort the results.
func (t *Table) Range(fn func(Entry) bool) {
	for i := range t.buckets {
		for _, e := range t.buckets[i] {
			if !fn(e) {
				return
			}
		}
	}
}

// grow doubles the bucket array and rehashes every entry.
func (t *Table) grow() {
	next := make([][]Entry, len(t.buckets)*2)
	for i := range t.buckets {
		for _, e := range t.buckets[i] {
			nb := Hash(e.Name) % uint64(len(next))
			next[nb] = append(next[nb], e)
		}
	}
	t.buckets = next
	t.Rehashes++
}
