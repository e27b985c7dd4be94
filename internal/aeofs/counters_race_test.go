package aeofs

import (
	"sync"
	"testing"
)

// TestCacheCounterRaceHammer pounds the cacheManager's atomic counters from
// real OS goroutines. The sim engine runs machine workloads one event at a
// time, so this hammer is what actually gives the race detector parallel
// accesses to the hot-path accounting (resident/hwm with its CAS-max, the
// CAS-clamped uncharge/subDirty, and the stat counters the epoch fast path
// bumps outside any lock). Run with -race; the balance assertions also catch
// lost updates without it.
func TestCacheCounterRaceHammer(t *testing.T) {
	cm := newCacheManager(nil, CacheConfig{})
	fs := &FS{}
	const (
		workers = 8
		rounds  = 1 << 12
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cm.account(BlockSize)
				cm.dirty.Add(BlockSize)
				cm.fastReads.Add(1)
				cm.evictions.Add(1)
				cm.raHits.Add(1)
				cm.wbRuns.Add(1)
				cm.wbPages.Add(2)
				fs.ReadsOps.Add(1)
				fs.BytesRead.Add(BlockSize)
				fs.WritesOps.Add(1)
				cm.subDirty(BlockSize)
				cm.uncharge(BlockSize)
			}
		}()
	}
	wg.Wait()

	s := cm.snapshot()
	if s.ResidentBytes != 0 {
		t.Fatalf("resident bytes unbalanced: %d", s.ResidentBytes)
	}
	if s.DirtyBytes != 0 {
		t.Fatalf("dirty bytes unbalanced: %d", s.DirtyBytes)
	}
	const total = workers * rounds
	if s.ResidentHWM == 0 || s.ResidentHWM > total*BlockSize {
		t.Fatalf("resident HWM out of range: %d", s.ResidentHWM)
	}
	if s.FastReads != total || s.Evictions != total || s.ReadaheadHits != total {
		t.Fatalf("lost counter updates: %+v", s)
	}
	if s.WritebackRuns != total || s.WritebackPages != 2*total {
		t.Fatalf("lost write-back counters: %+v", s)
	}
	if fs.ReadsOps.Load() != total || fs.BytesRead.Load() != total*BlockSize || fs.WritesOps.Load() != total {
		t.Fatal("lost FS stat updates")
	}
}

// TestClampedCountersNeverWrap over-refunds the clamped counters from
// concurrent goroutines: whatever the interleaving, the CAS-clamp must pin
// them at zero rather than wrapping to huge values.
func TestClampedCountersNeverWrap(t *testing.T) {
	cm := newCacheManager(nil, CacheConfig{})
	cm.account(7 * BlockSize)
	cm.dirty.Add(3 * BlockSize)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				cm.uncharge(2 * BlockSize)
				cm.subDirty(2 * BlockSize)
			}
		}()
	}
	wg.Wait()
	if r := cm.resident.Load(); r != 0 {
		t.Fatalf("resident did not clamp to zero: %d", r)
	}
	if d := cm.dirty.Load(); d != 0 {
		t.Fatalf("dirty did not clamp to zero: %d", d)
	}
}
