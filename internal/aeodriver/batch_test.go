package aeodriver_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeokern"
	"aeolia/internal/faultinject"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/uintr"
)

// batchRig wires a one-core, 512B-block machine and runs body in a driver
// task.
func batchRig(t *testing.T, cfg aeodriver.Config, body func(env *sim.Env, m *machine.Machine, drv *aeodriver.Driver, th *aeodriver.Thread) error) {
	t.Helper()
	m := machine.New(1, nvme.Config{BlockSize: 512, NumBlocks: 1 << 14})
	t.Cleanup(m.Eng.Shutdown)
	p, err := m.Launch("batch", aeokern.Partition{Start: 0, Blocks: 1 << 14, Writable: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var berr error
	m.Eng.Spawn("io", m.Eng.Core(0), func(env *sim.Env) {
		th, e := p.Driver.CreateQP(env)
		if e != nil {
			berr = e
			return
		}
		berr = body(env, m, p.Driver, th)
	})
	m.Run(0)
	if berr != nil {
		t.Fatal(berr)
	}
}

// TestVectoredBatchRoundTrip: WriteVBatch persists every segment with one
// doorbell write and ReadVBatch reads them back.
func TestVectoredBatchRoundTrip(t *testing.T) {
	cfg := aeodriver.Config{Mode: aeodriver.ModeUserInterrupt, QueueDepth: 64}
	batchRig(t, cfg, func(env *sim.Env, m *machine.Machine, drv *aeodriver.Driver, th *aeodriver.Thread) error {
		const segs = 8
		wr := make([]aeodriver.IOVec, segs)
		for i := range wr {
			wr[i] = aeodriver.IOVec{
				LBA: uint64(i * 100), // non-contiguous: each segment its own command
				Cnt: 2,
				Buf: bytes.Repeat([]byte{byte(0xA0 + i)}, 2*512),
			}
		}
		qp := th.QueuePairs()[0]
		doorbells := qp.SQDoorbells
		if err := drv.WriteVBatch(env, wr); err != nil {
			return err
		}
		if got := qp.SQDoorbells - doorbells; got != 1 {
			t.Errorf("write batch rang %d SQ doorbells, want 1", got)
		}
		if qp.MaxSQBurst < segs {
			t.Errorf("MaxSQBurst = %d, want >= %d", qp.MaxSQBurst, segs)
		}
		rd := make([]aeodriver.IOVec, segs)
		for i := range rd {
			rd[i] = aeodriver.IOVec{LBA: uint64(i * 100), Cnt: 2, Buf: make([]byte, 2*512)}
		}
		if err := drv.ReadVBatch(env, rd); err != nil {
			return err
		}
		for i := range rd {
			if !bytes.Equal(rd[i].Buf, wr[i].Buf) {
				t.Errorf("segment %d diverged after batched round trip", i)
			}
		}
		if got := qp.SQDoorbells - doorbells; got != 2 || th.Submitted != 2*segs {
			t.Errorf("doorbells/commands = %d/%d, want 2/%d", got, th.Submitted, 2*segs)
		}
		if th.PendingRequests() != 0 {
			t.Errorf("%d requests still pending after WaitAll", th.PendingRequests())
		}
		return nil
	})
}

// TestSubmitBatchAtomicPermRejection: one bad segment rejects the whole
// batch before anything reaches a submission queue.
func TestSubmitBatchAtomicPermRejection(t *testing.T) {
	cfg := aeodriver.Config{Mode: aeodriver.ModeUserInterrupt, QueueDepth: 64}
	m := machine.New(1, nvme.Config{BlockSize: 512, NumBlocks: 1 << 14})
	t.Cleanup(m.Eng.Shutdown)
	// Partition covers only the first half of the device.
	p, err := m.Launch("batch", aeokern.Partition{Start: 0, Blocks: 1 << 13, Writable: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var berr error
	m.Eng.Spawn("io", m.Eng.Core(0), func(env *sim.Env) {
		th, e := p.Driver.CreateQP(env)
		if e != nil {
			berr = e
			return
		}
		iov := []aeodriver.IOVec{
			{LBA: 0, Cnt: 1, Buf: make([]byte, 512)},
			{LBA: 1 << 13, Cnt: 1, Buf: make([]byte, 512)}, // outside the partition
			{LBA: 2, Cnt: 1, Buf: make([]byte, 512)},
		}
		if _, err := p.Driver.SubmitBatch(env, nvme.OpWrite, iov, false); err == nil {
			berr = fmt.Errorf("batch with out-of-partition segment accepted")
			return
		}
		if th.Submitted != 0 || th.PendingRequests() != 0 {
			berr = fmt.Errorf("rejected batch partially submitted: submitted=%d pending=%d",
				th.Submitted, th.PendingRequests())
		}
	})
	m.Run(0)
	if berr != nil {
		t.Fatal(berr)
	}
}

// TestWatchdogQuietUnderCoalescing is the regression test for the spurious
// recovery the watchdog used to perform when interrupt coalescing held a
// completion back on purpose: the CQE was visible, no notification had
// arrived yet (the aggregation window was still open), and the watchdog
// concluded the interrupt was lost and reaped the queue itself — counting a
// bogus NotifyRecovered and racing the real delivery. The fix makes the
// watchdog stand down while the queue pair's NotifyPending() reports an armed
// aggregation.
func TestWatchdogQuietUnderCoalescing(t *testing.T) {
	cfg := aeodriver.Config{
		Mode:           aeodriver.ModeUserInterrupt,
		QueueDepth:     64,
		RecoverTimeout: 20 * time.Microsecond,
		// A lone command can never hit the 64-event threshold, so its
		// notification is held for the full 200µs aggregation time —
		// an order of magnitude past the watchdog interval.
		Coalesce: nvme.Coalescing{MaxEvents: 64, MaxDelay: 200 * time.Microsecond},
	}
	batchRig(t, cfg, func(env *sim.Env, m *machine.Machine, drv *aeodriver.Driver, th *aeodriver.Thread) error {
		start := env.Now()
		if err := drv.ReadBlk(env, 5, 1, make([]byte, 512)); err != nil {
			return err
		}
		if waited := env.Now() - start; waited < 150*time.Microsecond {
			t.Errorf("read completed after %v, want ≥ 150µs (coalescing must hold the interrupt)", waited)
		}
		if th.NotifyRecovered != 0 {
			t.Errorf("NotifyRecovered = %d: watchdog fired on an intentionally-held completion", th.NotifyRecovered)
		}
		if th.HandlerRuns == 0 {
			t.Error("user-interrupt handler never ran; completion was stolen from the delivery path")
		}
		if irqs := th.QueuePairs()[0].IRQRaised; irqs != 1 {
			t.Errorf("IRQRaised = %d, want exactly 1 aggregated interrupt", irqs)
		}
		return nil
	})
}

// TestWatchdogQuietUnderUrgentBypass: an urgent-class completion bypasses
// the aggregation window — the interrupt is raised immediately and the
// aggregation state resets, so NotifyPending() goes false while the CQE is
// still visible. If the notification is slow to land (here: fault-injected
// 40µs delay, twice the watchdog interval), the watchdog used to see
// "completion present, no aggregation armed, nothing consumed it" and reap
// the CQE as lost — double-counting the bypassed completion as both
// delivered and recovered. The UPID's ON bit says the notification is in
// flight; the watchdog must stand down on it.
func TestWatchdogQuietUnderUrgentBypass(t *testing.T) {
	plan := faultinject.NewPlan(31).On(faultinject.SiteUintrDelay, faultinject.Always())
	cfg := aeodriver.Config{
		Mode:           aeodriver.ModeUserInterrupt,
		QueueDepth:     64,
		QoS:            true,
		RecoverTimeout: 20 * time.Microsecond,
		Coalesce:       nvme.Coalescing{MaxEvents: 64, MaxDelay: 200 * time.Microsecond, UrgentMax: 1},
	}
	batchRig(t, cfg, func(env *sim.Env, m *machine.Machine, drv *aeodriver.Driver, th *aeodriver.Thread) error {
		if err := drv.SetNotifyHook(env, &faultinject.NotifyFaults{Plan: plan, Delay: 40 * time.Microsecond}); err != nil {
			return err
		}
		if err := drv.SetIOClass(env, uintr.ClassUrgent); err != nil {
			return err
		}
		start := env.Now()
		if err := drv.ReadBlk(env, 5, 1, make([]byte, 512)); err != nil {
			return err
		}
		if waited := env.Now() - start; waited >= 150*time.Microsecond {
			t.Errorf("read completed after %v: the urgent bypass did not skip the 200µs aggregation", waited)
		}
		if th.NotifyRecovered != 0 {
			t.Errorf("NotifyRecovered = %d: watchdog reaped a bypassed completion whose notification was in flight", th.NotifyRecovered)
		}
		if th.HandlerRuns == 0 {
			t.Error("user-interrupt handler never ran; completion was stolen from the delivery path")
		}
		if byp := th.QueuePairs()[0].IRQBypassed; byp != 1 {
			t.Errorf("IRQBypassed = %d, want exactly 1", byp)
		}
		return nil
	})
}

// TestWatchdogStillRecoversWithCoalescing: the watchdog fix must not disable
// real recovery — once the aggregated interrupt is raised and lost (dropped
// notification), no aggregation window is open and the watchdog must reap.
func TestWatchdogStillRecoversWithCoalescing(t *testing.T) {
	plan := faultinject.NewPlan(21).On(faultinject.SiteUintrDrop, faultinject.Always())
	cfg := aeodriver.Config{
		Mode:           aeodriver.ModeUserInterrupt,
		QueueDepth:     64,
		RecoverTimeout: 50 * time.Microsecond,
		Coalesce:       nvme.Coalescing{MaxEvents: 4, MaxDelay: 30 * time.Microsecond},
	}
	batchRig(t, cfg, func(env *sim.Env, m *machine.Machine, drv *aeodriver.Driver, th *aeodriver.Thread) error {
		if err := drv.SetNotifyHook(env, &faultinject.NotifyFaults{Plan: plan}); err != nil {
			return err
		}
		data := bytes.Repeat([]byte{0x7E}, 512)
		if err := drv.WriteBlk(env, 9, 1, data); err != nil {
			return err
		}
		if th.NotifyRecovered == 0 {
			t.Error("watchdog never recovered the dropped coalesced interrupt")
		}
		return nil
	})
}

// TestExactlyOnceUnderFaultInjection is the acceptance-criteria test: under
// dropped, delayed, and duplicated notifications, every submitted command
// completes exactly once — in both the batched+coalesced mode and the
// one-command-per-doorbell mode.
func TestExactlyOnceUnderFaultInjection(t *testing.T) {
	const (
		ops  = 64
		unit = 8
	)
	for _, batched := range []bool{false, true} {
		name := "one-per-doorbell"
		cfg := aeodriver.Config{
			Mode:           aeodriver.ModeUserInterrupt,
			QueueDepth:     64,
			RecoverTimeout: 40 * time.Microsecond,
		}
		if batched {
			name = "batched+coalesced"
			cfg.Coalesce = nvme.Coalescing{MaxEvents: unit, MaxDelay: 25 * time.Microsecond}
		}
		t.Run(name, func(t *testing.T) {
			plan := faultinject.NewPlan(33).
				On(faultinject.SiteUintrDrop, faultinject.WithProb(0.25, 0)).
				On(faultinject.SiteUintrDelay, faultinject.WithProb(0.25, 0)).
				On(faultinject.SiteUintrDup, faultinject.WithProb(0.25, 0))
			batchRig(t, cfg, func(env *sim.Env, m *machine.Machine, drv *aeodriver.Driver, th *aeodriver.Thread) error {
				if err := drv.SetNotifyHook(env, &faultinject.NotifyFaults{Plan: plan, Delay: 15 * time.Microsecond}); err != nil {
					return err
				}
				// Write a distinct pattern everywhere, unit commands at
				// a time in batched mode.
				for base := 0; base < ops; base += unit {
					if batched {
						iov := make([]aeodriver.IOVec, unit)
						for i := range iov {
							lba := uint64(base + i)
							iov[i] = aeodriver.IOVec{LBA: lba * 3, Cnt: 1, Buf: pattern(lba)}
						}
						if err := drv.WriteVBatch(env, iov); err != nil {
							return err
						}
					} else {
						for i := 0; i < unit; i++ {
							lba := uint64(base + i)
							if err := drv.WriteBlk(env, lba*3, 1, pattern(lba)); err != nil {
								return err
							}
						}
					}
				}
				// Read everything back the same way and verify.
				for base := 0; base < ops; base += unit {
					iov := make([]aeodriver.IOVec, unit)
					for i := range iov {
						iov[i] = aeodriver.IOVec{LBA: uint64(base+i) * 3, Cnt: 1, Buf: make([]byte, 512)}
					}
					if batched {
						if err := drv.ReadVBatch(env, iov); err != nil {
							return err
						}
					} else {
						for _, v := range iov {
							if err := drv.ReadBlk(env, v.LBA, v.Cnt, v.Buf); err != nil {
								return err
							}
						}
					}
					for i, v := range iov {
						if !bytes.Equal(v.Buf, pattern(uint64(base+i))) {
							t.Errorf("lba %d diverged under notification faults", v.LBA)
						}
					}
				}
				// Exactly-once bookkeeping: nothing pending, nothing
				// lost, nothing double-counted.
				if th.PendingRequests() != 0 {
					t.Errorf("%d requests still pending", th.PendingRequests())
				}
				qp := th.QueuePairs()[0]
				if qp.Submitted != qp.Completed {
					t.Errorf("Submitted %d != Completed %d", qp.Submitted, qp.Completed)
				}
				if qp.HasCompletions() {
					t.Error("unconsumed CQEs left behind")
				}
				if th.Submitted != 2*ops {
					t.Errorf("Submitted = %d, want %d", th.Submitted, 2*ops)
				}
				return nil
			})
		})
	}
}

func pattern(lba uint64) []byte {
	return bytes.Repeat([]byte{byte(0x11 + lba)}, 512)
}
