package aeofs

import "testing"

// TestClampedCountersStopAtZero: a refund larger than what is left —
// uncharge of residency, subDirty of dirty bytes — leaves the counter at
// zero instead of wrapping it to a huge value; a refund that fits
// subtracts exactly.
func TestClampedCountersStopAtZero(t *testing.T) {
	cm := newCacheManager(nil, CacheConfig{})
	cm.account(7 * BlockSize)
	cm.addDirty(3 * BlockSize)
	cm.uncharge(2 * BlockSize)
	cm.subDirty(BlockSize)
	if r, d := cm.stats.ResidentBytes, cm.stats.DirtyBytes; r != 5*BlockSize || d != 2*BlockSize {
		t.Fatalf("after refunds that fit: %d resident, %d dirty bytes, want %d and %d", r, d, 5*BlockSize, 2*BlockSize)
	}
	cm.uncharge(6 * BlockSize)
	cm.subDirty(3 * BlockSize)
	if r, d := cm.stats.ResidentBytes, cm.stats.DirtyBytes; r != 0 || d != 0 {
		t.Fatalf("after over-refunds: %d resident, %d dirty bytes, want both clamped at 0", r, d)
	}
}

// TestAccountKeepsHighWaterMark: ResidentHWM is the most residency ever
// accounted. Refunds lower the residency but not the mark, and a charge
// that climbs past it raises it.
func TestAccountKeepsHighWaterMark(t *testing.T) {
	cm := newCacheManager(nil, CacheConfig{})
	for _, step := range []struct {
		charge, refund, resident, hwm uint64
	}{
		{charge: 3, resident: 3, hwm: 3},
		{refund: 2, resident: 1, hwm: 3},
		{charge: 1, resident: 2, hwm: 3},
		{charge: 4, resident: 6, hwm: 6},
		{refund: 6, resident: 0, hwm: 6},
	} {
		if step.charge > 0 {
			cm.account(step.charge * BlockSize)
		}
		cm.uncharge(step.refund * BlockSize)
		if s := cm.snapshot(); s.ResidentBytes != step.resident*BlockSize || s.ResidentHWM != step.hwm*BlockSize {
			t.Fatalf("%+v: resident %d, HWM %d bytes", step, s.ResidentBytes, s.ResidentHWM)
		}
	}
}
