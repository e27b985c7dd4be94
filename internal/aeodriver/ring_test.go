package aeodriver_test

import (
	"bytes"
	"testing"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/machine"
	"aeolia/internal/sim"
)

// ringWorkload runs a fixed batched write+read workload and returns the
// virtual time it took plus the thread's ring-staging count.
func ringWorkload(t *testing.T, ring bool) (elapsed time.Duration, staged uint64, data [][]byte) {
	t.Helper()
	cfg := aeodriver.Config{
		Mode:         aeodriver.ModeUserInterrupt,
		QueueDepth:   64,
		ZeroCopyRing: ring,
	}
	batchRig(t, cfg, func(env *sim.Env, m *machine.Machine, drv *aeodriver.Driver, th *aeodriver.Thread) error {
		const segs = 16
		start := env.Now()
		wr := make([]aeodriver.IOVec, segs)
		for i := range wr {
			wr[i] = aeodriver.IOVec{LBA: uint64(i * 40), Cnt: 1, Buf: pattern(uint64(i))}
		}
		if err := drv.WriteVBatch(env, wr); err != nil {
			return err
		}
		rd := make([]aeodriver.IOVec, segs)
		for i := range rd {
			rd[i] = aeodriver.IOVec{LBA: uint64(i * 40), Cnt: 1, Buf: make([]byte, 512)}
		}
		if err := drv.ReadVBatch(env, rd); err != nil {
			return err
		}
		// One unbatched round trip exercises the single-submit ring path.
		if err := drv.WriteBlk(env, 7000, 1, pattern(99)); err != nil {
			return err
		}
		one := make([]byte, 512)
		if err := drv.ReadBlk(env, 7000, 1, one); err != nil {
			return err
		}
		elapsed = env.Now() - start
		staged = th.RingStaged
		for _, v := range rd {
			data = append(data, v.Buf)
		}
		data = append(data, one)
		if th.PendingRequests() != 0 {
			t.Errorf("ring=%v: %d requests still pending", ring, th.PendingRequests())
		}
		return nil
	})
	return elapsed, staged, data
}

// TestZeroCopyRingIdentity: the ring datapath must return byte-identical
// data, actually stage every command through the SPSC ring, and take
// strictly less virtual time than the batched SQE path (RingPrep <
// SQEPrep, RingComplete < CompleteCost — the whole point of the mode).
func TestZeroCopyRingIdentity(t *testing.T) {
	base, baseStaged, baseData := ringWorkload(t, false)
	fast, fastStaged, fastData := ringWorkload(t, true)
	if baseStaged != 0 {
		t.Errorf("baseline staged %d commands through rings; want 0", baseStaged)
	}
	// 2*16 batched segments + 2 single submissions.
	if want := uint64(2*16 + 2); fastStaged != want {
		t.Errorf("ring mode staged %d commands, want %d", fastStaged, want)
	}
	if len(baseData) != len(fastData) {
		t.Fatalf("result count diverged: %d vs %d", len(baseData), len(fastData))
	}
	for i := range baseData {
		if !bytes.Equal(baseData[i], fastData[i]) {
			t.Errorf("read-back %d diverged between datapaths", i)
		}
	}
	if fast >= base {
		t.Errorf("ring datapath took %v, not cheaper than %v batched", fast, base)
	}
}
