package aeofs

import "time"

// Per-operation CPU costs of the userspace file system paths. The absolute
// values model a ~2GHz core with ~18GB/s single-core copy bandwidth; the
// figure-level claims only depend on their ratios to the kernel baselines
// in internal/kernfs.
const (
	// costHashProbe is a dentry-hash lookup/insert probe.
	costHashProbe = 60 * time.Nanosecond
	// costRadixLookup is a page-cache radix-tree descent.
	costRadixLookup = 80 * time.Nanosecond
	// costFDLookup resolves an fd to its file object.
	costFDLookup = 30 * time.Nanosecond
	// costInodeCacheHit is an inode-cache hit in the untrusted layer.
	costInodeCacheHit = 60 * time.Nanosecond
	// costTrustedCheck is the eager integrity validation work inside the
	// trusted layer (permission + metadata invariants), excluding the
	// gate toll.
	costTrustedCheck = 120 * time.Nanosecond
	// costJournalEntry prepares one in-memory journal record.
	costJournalEntry = 150 * time.Nanosecond
	// costDirentScan walks one directory data block.
	costDirentScan = 400 * time.Nanosecond
	// costRehashPerEntry is the per-entry cost of growing a dentry hash.
	costRehashPerEntry = 40 * time.Nanosecond
	// costPageAlloc allocates+zeroes a page-cache page.
	costPageAlloc = 120 * time.Nanosecond
)

// copyBandwidth is the modeled single-core memcpy bandwidth.
const copyBandwidth = 18e9 // bytes/sec

// copyCost returns the CPU cost of copying n bytes.
func copyCost(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / copyBandwidth * 1e9)
}

// scaled multiplies a per-item cost by a count.
func scaled(per time.Duration, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return per * time.Duration(n)
}
