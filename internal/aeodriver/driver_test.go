package aeodriver_test

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeokern"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/timing"
)

func newMachine(t *testing.T, cores int) *machine.Machine {
	t.Helper()
	m := machine.New(cores, nvme.Config{BlockSize: 4096, NumBlocks: 1 << 16})
	t.Cleanup(m.Eng.Shutdown)
	return m
}

func launch(t *testing.T, m *machine.Machine, name string, part aeokern.Partition, cfg aeodriver.Config) *machine.Process {
	t.Helper()
	p, err := m.Launch(name, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPermTableRangeOps(t *testing.T) {
	pt := aeodriver.NewPermTable(1000)
	pt.SetRange(100, 50, aeodriver.PermRW)
	pt.SetRange(120, 10, aeodriver.PermRead)
	if !pt.Allows(100, 20, true) {
		t.Fatal("rw range denied write")
	}
	if pt.Allows(110, 20, true) {
		t.Fatal("write allowed across read-only subrange")
	}
	if !pt.Allows(110, 20, false) {
		t.Fatal("read denied inside granted range")
	}
	if pt.Allows(90, 20, false) {
		t.Fatal("read allowed outside granted range")
	}
	if pt.Allows(990, 20, false) {
		t.Fatal("range overflowing the table allowed")
	}
	if pt.Allows(0, 0, false) {
		t.Fatal("zero-length access allowed")
	}
}

func TestPermTableQuickSetGet(t *testing.T) {
	pt := aeodriver.NewPermTable(4096)
	f := func(blk uint16, p uint8) bool {
		b := uint64(blk) % 4096
		want := aeodriver.Perm(p % 4)
		pt.Set(b, want)
		return pt.Get(b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteBlkRoundTrip(t *testing.T) {
	for _, mode := range []aeodriver.CompletionMode{
		aeodriver.ModeUserInterrupt, aeodriver.ModePoll, aeodriver.ModeKernelInterrupt,
	} {
		m := newMachine(t, 1)
		p := launch(t, m, "app", aeokern.Partition{Start: 0, Blocks: 1 << 16, Writable: true},
			aeodriver.Config{Mode: mode})
		var got []byte
		m.Eng.Spawn("io", m.Eng.Core(0), func(env *sim.Env) {
			if _, err := p.Driver.CreateQP(env); err != nil {
				t.Error(err)
				return
			}
			src := bytes.Repeat([]byte{0x5a}, 4096)
			if err := p.Driver.WriteBlk(env, 7, 1, src); err != nil {
				t.Errorf("%v write: %v", mode, err)
				return
			}
			dst := make([]byte, 4096)
			if err := p.Driver.ReadBlk(env, 7, 1, dst); err != nil {
				t.Errorf("%v read: %v", mode, err)
				return
			}
			got = dst
		})
		m.Run(0)
		if got == nil || got[0] != 0x5a {
			t.Fatalf("%v: round trip failed", mode)
		}
	}
}

func TestPermissionDenied(t *testing.T) {
	m := newMachine(t, 1)
	// Partition covers blocks [100, 200), read-only.
	p := launch(t, m, "app", aeokern.Partition{Start: 100, Blocks: 100, Writable: false},
		aeodriver.Config{Mode: aeodriver.ModePoll})
	var errOut, errWrite, errRead error
	m.Eng.Spawn("io", m.Eng.Core(0), func(env *sim.Env) {
		p.Driver.CreateQP(env)
		buf := make([]byte, 4096)
		errRead = p.Driver.ReadBlk(env, 150, 1, buf)
		errWrite = p.Driver.WriteBlk(env, 150, 1, buf)
		errOut = p.Driver.ReadBlk(env, 50, 1, buf)
	})
	m.Run(0)
	if errRead != nil {
		t.Fatalf("in-partition read failed: %v", errRead)
	}
	if !errors.Is(errWrite, aeodriver.ErrPerm) {
		t.Fatalf("write to read-only partition: err = %v, want ErrPerm", errWrite)
	}
	if !errors.Is(errOut, aeodriver.ErrPerm) {
		t.Fatalf("read outside partition: err = %v, want ErrPerm", errOut)
	}
}

func TestPrivilegedAPIsRejectUntrusted(t *testing.T) {
	m := newMachine(t, 1)
	p := launch(t, m, "app", aeokern.Partition{Start: 0, Blocks: 100, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModePoll})
	var errRP, errSP error
	var errGP error
	m.Eng.Spawn("attacker", m.Eng.Core(0), func(env *sim.Env) {
		p.Driver.CreateQP(env)
		buf := make([]byte, 4096)
		errRP = p.Driver.ReadPriv(env, 5000, 1, buf)
		errSP = p.Driver.SetPerm(env, 5000, aeodriver.PermRW)
		_, errGP = p.Driver.GetPerm(env, 5000)
	})
	m.Run(0)
	for name, err := range map[string]error{"read_priv": errRP, "set_perm": errSP, "get_perm": errGP} {
		if !errors.Is(err, aeodriver.ErrPrivileged) {
			t.Errorf("%s from untrusted code: err = %v, want ErrPrivileged", name, err)
		}
	}
}

func TestPrivilegedAPIsWorkInsideGate(t *testing.T) {
	m := newMachine(t, 1)
	p := launch(t, m, "app", aeokern.Partition{Start: 0, Blocks: 100, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModePoll})
	var setErr, readErr error
	var perm aeodriver.Perm
	m.Eng.Spawn("trusted", m.Eng.Core(0), func(env *sim.Env) {
		p.Driver.CreateQP(env)
		p.Gate.Call(env, p.Proc.Thread, func() {
			setErr = p.Driver.SetPerm(env, 5000, aeodriver.PermRead)
			perm, readErr = p.Driver.GetPerm(env, 5000)
			buf := make([]byte, 4096)
			if err := p.Driver.ReadPriv(env, 5000, 1, buf); err != nil {
				t.Errorf("read_priv inside gate: %v", err)
			}
		})
	})
	m.Run(0)
	if setErr != nil || readErr != nil {
		t.Fatalf("set/get perm inside gate: %v / %v", setErr, readErr)
	}
	if perm != aeodriver.PermRead {
		t.Fatalf("perm = %v, want r", perm)
	}
}

func TestSetPermThenAccessGranted(t *testing.T) {
	m := newMachine(t, 1)
	p := launch(t, m, "app", aeokern.Partition{Start: 0, Blocks: 100, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModePoll})
	var before, after error
	m.Eng.Spawn("io", m.Eng.Core(0), func(env *sim.Env) {
		p.Driver.CreateQP(env)
		buf := make([]byte, 4096)
		before = p.Driver.ReadBlk(env, 500, 1, buf)
		p.Gate.Call(env, p.Proc.Thread, func() {
			p.Driver.SetPermRange(env, 500, 1, aeodriver.PermRead)
		})
		after = p.Driver.ReadBlk(env, 500, 1, buf)
	})
	m.Run(0)
	if !errors.Is(before, aeodriver.ErrPerm) {
		t.Fatalf("pre-grant read: err = %v, want ErrPerm", before)
	}
	if after != nil {
		t.Fatalf("post-grant read failed: %v", after)
	}
}

// TestAeoliaLatencyCalibration is the core Figure 2 check: a lone 4KB read
// via the user-interrupt driver must land near the paper's 4.8µs.
func TestAeoliaLatencyCalibration(t *testing.T) {
	m := newMachine(t, 1)
	p := launch(t, m, "fio", aeokern.Partition{Start: 0, Blocks: 1 << 16, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	var lat time.Duration
	m.Eng.Spawn("fio", m.Eng.Core(0), func(env *sim.Env) {
		p.Driver.CreateQP(env)
		buf := make([]byte, 4096)
		// Warm-up op, then measure.
		p.Driver.ReadBlk(env, 0, 1, buf)
		start := env.Now()
		if err := p.Driver.ReadBlk(env, 1, 1, buf); err != nil {
			t.Error(err)
		}
		lat = env.Now() - start
	})
	m.Run(0)
	if lat < 4500*time.Nanosecond || lat > 5200*time.Nanosecond {
		t.Fatalf("Aeolia 4KB read latency = %v, want ~4.8µs", lat)
	}
}

// TestPollLatencyCalibration checks the SPDK-equivalent mode (~4.2µs plus
// the trusted-gate toll the paper's SPDK baseline does not pay).
func TestPollLatencyCalibration(t *testing.T) {
	m := newMachine(t, 1)
	p := launch(t, m, "fio", aeokern.Partition{Start: 0, Blocks: 1 << 16, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModePoll})
	var lat time.Duration
	m.Eng.Spawn("fio", m.Eng.Core(0), func(env *sim.Env) {
		p.Driver.CreateQP(env)
		buf := make([]byte, 4096)
		p.Driver.ReadBlk(env, 0, 1, buf)
		start := env.Now()
		p.Driver.ReadBlk(env, 1, 1, buf)
		lat = env.Now() - start
	})
	m.Run(0)
	if lat < 4000*time.Nanosecond || lat > 4600*time.Nanosecond {
		t.Fatalf("poll-mode 4KB read latency = %v, want ~4.3µs", lat)
	}
}

func TestUserInterruptDeliveredInSchedule(t *testing.T) {
	m := newMachine(t, 1)
	p := launch(t, m, "fio", aeokern.Partition{Start: 0, Blocks: 1 << 16, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	var th *aeodriver.Thread
	m.Eng.Spawn("fio", m.Eng.Core(0), func(env *sim.Env) {
		th, _ = p.Driver.CreateQP(env)
		buf := make([]byte, 4096)
		for i := 0; i < 5; i++ {
			p.Driver.ReadBlk(env, uint64(i), 1, buf)
		}
	})
	m.Run(0)
	if th.HandlerRuns != 5 {
		t.Fatalf("HandlerRuns = %d, want 5", th.HandlerRuns)
	}
	if th.OutOfSchedDeliv != 0 {
		t.Fatalf("OutOfSchedDeliv = %d, want 0 (task alone on core)", th.OutOfSchedDeliv)
	}
	if th.ActiveCheckWaits != 5 {
		t.Fatalf("ActiveCheckWaits = %d, want 5", th.ActiveCheckWaits)
	}
}

func TestOutOfScheduleDeliveryWhenSharing(t *testing.T) {
	// An I/O task sharing its core with a compute hog: Aeolia's policy
	// blocks during I/O, so completions arrive out of schedule and take
	// the kernel path with an inserted handler frame.
	m := newMachine(t, 1)
	p := launch(t, m, "fio", aeokern.Partition{Start: 0, Blocks: 1 << 16, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	var th *aeodriver.Thread
	var ioDone int
	m.Eng.Spawn("hog", m.Eng.Core(0), func(env *sim.Env) {
		env.Exec(20 * time.Millisecond)
	})
	m.Eng.Spawn("fio", m.Eng.Core(0), func(env *sim.Env) {
		th, _ = p.Driver.CreateQP(env)
		buf := make([]byte, 4096)
		for i := 0; i < 3; i++ {
			if err := p.Driver.ReadBlk(env, uint64(i), 1, buf); err != nil {
				t.Error(err)
				return
			}
			ioDone++
		}
	})
	m.Run(0)
	if ioDone != 3 {
		t.Fatalf("completed %d I/Os, want 3", ioDone)
	}
	if th.BlockedWaits == 0 {
		t.Fatal("I/O task never yielded the core despite a runnable hog")
	}
	if th.OutOfSchedDeliv == 0 {
		t.Fatal("no out-of-schedule deliveries despite blocking waits")
	}
}

func TestAlwaysBlockPolicySlower(t *testing.T) {
	// Figure 17's +k_yield ablation: eagerly yielding to the idle task
	// costs the Figure 4 wakeup path on every I/O.
	lat := func(policy aeodriver.WaitPolicy) time.Duration {
		m := machine.New(1, nvme.Config{BlockSize: 4096, NumBlocks: 1 << 16})
		defer m.Eng.Shutdown()
		p, err := m.Launch("fio", aeokern.Partition{Start: 0, Blocks: 1 << 16, Writable: true},
			aeodriver.Config{Mode: aeodriver.ModeUserInterrupt, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		var total time.Duration
		m.Eng.Spawn("fio", m.Eng.Core(0), func(env *sim.Env) {
			p.Driver.CreateQP(env)
			buf := make([]byte, 4096)
			p.Driver.ReadBlk(env, 0, 1, buf)
			start := env.Now()
			for i := 0; i < 10; i++ {
				p.Driver.ReadBlk(env, uint64(i), 1, buf)
			}
			total = (env.Now() - start) / 10
		})
		m.Run(0)
		return total
	}
	active := lat(aeodriver.PolicyCoordinated)
	block := lat(aeodriver.PolicyAlwaysBlock)
	if block <= active {
		t.Fatalf("always-block (%v) should be slower than active checking (%v)", block, active)
	}
	diff := block - active
	want := timing.WakeupTTWU + timing.IdleExit + timing.ContextSwitch
	if diff < want/2 || diff > want*2 {
		t.Fatalf("k_yield penalty = %v, want on the order of %v", diff, want)
	}
}

func TestAsyncSubmitQueueDepth(t *testing.T) {
	m := newMachine(t, 1)
	p := launch(t, m, "tp", aeokern.Partition{Start: 0, Blocks: 1 << 16, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	var elapsed time.Duration
	const depth = 8
	m.Eng.Spawn("tp", m.Eng.Core(0), func(env *sim.Env) {
		p.Driver.CreateQP(env)
		start := env.Now()
		reqs := make([]*aeodriver.Request, depth)
		buf := make([]byte, 4096)
		for i := range reqs {
			r, err := p.Driver.Submit(env, nvme.OpRead, uint64(i), 1, buf, false)
			if err != nil {
				t.Error(err)
				return
			}
			reqs[i] = r
		}
		for _, r := range reqs {
			if err := p.Driver.Wait(env, r); err != nil {
				t.Error(err)
			}
		}
		elapsed = env.Now() - start
	})
	m.Run(0)
	// 8 overlapping reads must take far less than 8 serial reads
	// (~4.8µs each): the device has 6 channels.
	if elapsed > 5*4800*time.Nanosecond {
		t.Fatalf("8 concurrent reads took %v; queue depth not exploited", elapsed)
	}
}

func TestDMABufAccounting(t *testing.T) {
	m := newMachine(t, 1)
	p := launch(t, m, "app", aeokern.Partition{Start: 0, Blocks: 64, Writable: true},
		aeodriver.Config{})
	buf := p.Driver.AllocDMABuf(8192)
	if len(buf) != 8192 {
		t.Fatalf("len = %d, want 8192", len(buf))
	}
	if p.Driver.DMABytes() != 8192 {
		t.Fatalf("DMABytes = %d, want 8192", p.Driver.DMABytes())
	}
	p.Driver.FreeDMABuf(buf)
	if p.Driver.DMABytes() != 0 {
		t.Fatalf("DMABytes after free = %d, want 0", p.Driver.DMABytes())
	}
}

func TestCloseReleasesQueuePairs(t *testing.T) {
	m := newMachine(t, 1)
	p := launch(t, m, "app", aeokern.Partition{Start: 0, Blocks: 64, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModePoll})
	m.Eng.Spawn("io", m.Eng.Core(0), func(env *sim.Env) {
		p.Driver.CreateQP(env)
	})
	m.Run(0)
	if m.Dev.QueuePairCount() != 1 {
		t.Fatalf("qp count = %d, want 1", m.Dev.QueuePairCount())
	}
	p.Driver.Close()
	if m.Dev.QueuePairCount() != 0 {
		t.Fatalf("qp count after close = %d, want 0", m.Dev.QueuePairCount())
	}
	var err error
	m.Eng.Spawn("io2", m.Eng.Core(0), func(env *sim.Env) {
		buf := make([]byte, 4096)
		err = p.Driver.ReadBlk(env, 0, 1, buf)
	})
	m.Run(0)
	if !errors.Is(err, aeodriver.ErrClosed) {
		t.Fatalf("I/O after close: err = %v, want ErrClosed", err)
	}
}

// TestUnwaitedRequestsOutliveTheirThread covers what a thread leaves in
// flight when it goes: a fire-and-forget submission's OnComplete must still
// run whether the thread simply returns (the kernel reaps its queue in
// interrupt context) or deletes its queue pair (which waits the requests
// out; in poll mode nobody else would ever look at the queue).
func TestUnwaitedRequestsOutliveTheirThread(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mode     aeodriver.CompletionMode
		deleteQP bool
	}{
		{"uintr/exit", aeodriver.ModeUserInterrupt, false},
		{"uintr/deleteQP", aeodriver.ModeUserInterrupt, true},
		{"kintr/exit", aeodriver.ModeKernelInterrupt, false},
		{"poll/deleteQP", aeodriver.ModePoll, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t, 1)
			p := launch(t, m, "app", aeokern.Partition{Start: 0, Blocks: 1 << 16, Writable: true},
				aeodriver.Config{Mode: tc.mode})
			const cmds = 4
			completed := 0
			var err error
			m.Eng.Spawn("io", m.Eng.Core(0), func(env *sim.Env) {
				if _, err = p.Driver.CreateQP(env); err != nil {
					return
				}
				iov := make([]aeodriver.IOVec, cmds)
				for i := range iov {
					iov[i] = aeodriver.IOVec{LBA: uint64(8 * i), Cnt: 8, Buf: make([]byte, 8*4096)}
				}
				var reqs []*aeodriver.Request
				if reqs, err = p.Driver.SubmitBatch(env, nvme.OpRead, iov, false); err != nil {
					return
				}
				for _, r := range reqs {
					r.OnComplete(func(r *aeodriver.Request) {
						if r.Err() == nil {
							completed++
						}
					})
				}
				if tc.deleteQP {
					err = p.Driver.DeleteQP(env)
					if err == nil && completed != cmds {
						err = errors.New("DeleteQP returned with requests in flight")
					}
				}
			})
			m.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			if completed != cmds {
				t.Fatalf("%d of %d unwaited requests completed", completed, cmds)
			}
		})
	}
}
