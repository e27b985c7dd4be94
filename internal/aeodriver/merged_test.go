package aeodriver_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeokern"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

// submitOutcome is everything one submission leaves behind that a caller or
// the trace analyzer can observe.
type submitOutcome struct {
	events                   []trace.Event
	submittedAt, doneAt, end time.Duration
	gateCalls                uint64
}

// submitOnce runs one read on a fresh traced machine, through Submit or
// through a one-element SubmitBatch, after prep has arranged the scenario.
func submitOnce(t *testing.T, batch bool, cfg aeodriver.Config, lba uint64, priv bool,
	prep func(env *sim.Env, drv *aeodriver.Driver)) (out submitOutcome, err error) {
	t.Helper()
	m := machine.New(1, nvme.Config{BlockSize: 512, NumBlocks: 1 << 12})
	t.Cleanup(m.Eng.Shutdown)
	tr := trace.New(1, 1<<12)
	m.Eng.Tracer = tr
	// The partition covers the first half of the device only.
	p, lerr := m.Launch("one", aeokern.Partition{Start: 0, Blocks: 1 << 11, Writable: true}, cfg)
	if lerr != nil {
		t.Fatal(lerr)
	}
	m.Eng.Spawn("io", m.Eng.Core(0), func(env *sim.Env) {
		drv := p.Driver
		if _, err = drv.CreateQP(env); err != nil {
			return
		}
		if prep != nil {
			prep(env, drv)
		}
		reqs := make([]*aeodriver.Request, 1)
		buf := make([]byte, 512)
		if batch {
			reqs, err = drv.SubmitBatch(env, nvme.OpRead, []aeodriver.IOVec{{LBA: lba, Cnt: 1, Buf: buf}}, priv)
		} else {
			reqs[0], err = drv.Submit(env, nvme.OpRead, lba, 1, buf, priv)
		}
		if err != nil {
			return
		}
		err = drv.Wait(env, reqs[0])
		out.submittedAt, out.doneAt = reqs[0].SubmittedAt, reqs[0].DoneAt
	})
	out.end = m.Run(0)
	out.events, out.gateCalls = tr.Events(), p.Gate.Calls
	return out, err
}

// TestSubmitIsBatchOfOne: the same command through Submit and through a
// one-element SubmitBatch must be indistinguishable — identical trace,
// timestamps, gate traversals and virtual end time — and every refusal must
// carry the same error class.
func TestSubmitIsBatchOfOne(t *testing.T) {
	fillSQ := func(env *sim.Env, drv *aeodriver.Driver) {
		for i := 0; i < 3; i++ { // depth 4 holds three commands; leave them in flight
			if _, err := drv.Submit(env, nvme.OpRead, uint64(i), 1, make([]byte, 512), false); err != nil {
				t.Error(err)
			}
		}
	}
	closeDrv := func(env *sim.Env, drv *aeodriver.Driver) { drv.Close() }
	for _, tc := range []struct {
		name string
		cfg  aeodriver.Config
		lba  uint64
		priv bool
		prep func(*sim.Env, *aeodriver.Driver)
		want error
	}{
		{name: "uintr", cfg: aeodriver.Config{Mode: aeodriver.ModeUserInterrupt}, lba: 7},
		{name: "poll", cfg: aeodriver.Config{Mode: aeodriver.ModePoll}, lba: 7},
		{name: "kintr", cfg: aeodriver.Config{Mode: aeodriver.ModeKernelInterrupt}, lba: 7},
		{name: "ring", cfg: aeodriver.Config{ZeroCopyRing: true}, lba: 7},
		{name: "perm", lba: 1 << 11, want: aeodriver.ErrPerm},
		{name: "sqfull", cfg: aeodriver.Config{QueueDepth: 4}, lba: 9, prep: fillSQ, want: nvme.ErrSQFull},
		{name: "privileged", lba: 7, priv: true, want: aeodriver.ErrPrivileged},
		{name: "closed", lba: 7, prep: closeDrv, want: aeodriver.ErrClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			one, oneErr := submitOnce(t, false, tc.cfg, tc.lba, tc.priv, tc.prep)
			vec, vecErr := submitOnce(t, true, tc.cfg, tc.lba, tc.priv, tc.prep)
			if !errors.Is(oneErr, tc.want) || !errors.Is(vecErr, tc.want) {
				t.Fatalf("errors: Submit %v, SubmitBatch %v, want class %v", oneErr, vecErr, tc.want)
			}
			if tc.want == nil && len(one.events) == 0 {
				t.Fatal("nothing was traced")
			}
			if !reflect.DeepEqual(one, vec) {
				t.Errorf("outcomes diverge:\nSubmit:      %+v\nSubmitBatch: %+v", one, vec)
			}
		})
	}
}

// TestSubmitBatchDeterministic: a multi-segment batch run on twenty fresh
// machines gives one completion timeline. With LBA-sharded threads (four
// queue pairs, segments grouped per shard in a Go map) the same batch
// produced several, because the shards' doorbells rang in map order; that
// is why a thread now owns exactly one queue pair.
func TestSubmitBatchDeterministic(t *testing.T) {
	timeline := func() (line string) {
		cfg := aeodriver.Config{Mode: aeodriver.ModeUserInterrupt, QueueDepth: 64}
		batchRig(t, cfg, func(env *sim.Env, m *machine.Machine, drv *aeodriver.Driver, th *aeodriver.Thread) error {
			iov := make([]aeodriver.IOVec, 16)
			for i := range iov {
				// Stride 40 spread the segments over all four 32-block shards.
				iov[i] = aeodriver.IOVec{LBA: uint64(i * 40), Cnt: 1, Buf: make([]byte, 512)}
			}
			reqs, err := drv.SubmitBatch(env, nvme.OpRead, iov, false)
			if err != nil {
				return err
			}
			err = drv.WaitAll(env, reqs)
			for _, r := range reqs {
				line += fmt.Sprintf("%d-%d ", r.SubmittedAt, r.DoneAt)
			}
			line += fmt.Sprint(env.Now())
			return err
		})
		return line
	}
	first := timeline()
	for run := 1; run < 20; run++ {
		if got := timeline(); got != first {
			t.Fatalf("run %d completion timeline diverged:\nfirst: %s\nnow:   %s", run, first, got)
		}
	}
}

// TestQPCycleRecyclesVectors: DeleteQP returns the thread's interrupt vector,
// so a task can cycle its queue pair far past the 208 vectors the machine
// has, in every completion mode, with I/O completing on the recycled wiring.
// An interrupt still in flight for a freed vector is counted spurious: it
// reaches neither the dead thread's user handler (the core's UINTR state is
// uninstalled) nor its kernel-path callback (the owner entry is cleared).
func TestQPCycleRecyclesVectors(t *testing.T) {
	for _, mode := range []aeodriver.CompletionMode{aeodriver.ModeUserInterrupt, aeodriver.ModePoll,
		aeodriver.ModeKernelInterrupt, aeodriver.ModeKernelNative} {
		t.Run(mode.String(), func(t *testing.T) {
			batchRig(t, aeodriver.Config{Mode: mode}, func(env *sim.Env, m *machine.Machine, drv *aeodriver.Driver, th *aeodriver.Thread) error {
				buf := make([]byte, 512)
				for cycle := 0; cycle < 1000; cycle++ {
					if cycle%100 == 0 {
						if err := drv.ReadBlk(env, uint64(cycle), 1, buf); err != nil {
							return fmt.Errorf("cycle %d: %w", cycle, err)
						}
					}
					if err := drv.DeleteQP(env); err != nil {
						return fmt.Errorf("cycle %d: %w", cycle, err)
					}
					if cycle == 0 && mode != aeodriver.ModePoll {
						// Interrupts are raised from engine context, as a device would.
						core, vec := env.Task().Core(), th.QueuePairs()[0].Vector
						runs, oos := th.HandlerRuns.Load(), th.KernelDeliveries.Load()
						m.Eng.Schedule(time.Microsecond, func() { core.RaiseIRQ(vec) })
						env.Exec(10 * time.Microsecond)
						if th.HandlerRuns.Load() != runs || th.KernelDeliveries.Load() != oos || m.Kern.SpuriousKernelIRQs != 1 {
							t.Errorf("late interrupt not dropped: handler runs %d→%d, kernel-path deliveries %d→%d, spurious %d",
								runs, th.HandlerRuns.Load(), oos, th.KernelDeliveries.Load(), m.Kern.SpuriousKernelIRQs)
						}
					}
					if _, err := drv.CreateQP(env); err != nil {
						return fmt.Errorf("cycle %d: %w", cycle, err)
					}
				}
				return nil
			})
		})
	}
}
