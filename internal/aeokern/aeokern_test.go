package aeokern_test

import (
	"errors"
	"testing"

	"aeolia/internal/aeokern"
	"aeolia/internal/nvme"
	"aeolia/internal/sched"
	"aeolia/internal/sim"
	"aeolia/internal/uintr"
)

func newKernel(t *testing.T, cores int) (*sim.Engine, *aeokern.Kernel) {
	t.Helper()
	s := sched.NewEEVDF()
	eng := sim.NewEngine(cores, s)
	t.Cleanup(eng.Shutdown)
	dev := nvme.NewDevice(eng, nvme.Config{BlockSize: 4096, NumBlocks: 1 << 12})
	return eng, aeokern.New(eng, s, dev)
}

func TestPartitionBounds(t *testing.T) {
	_, k := newKernel(t, 1)
	if _, err := k.NewProcess("ok", aeokern.Partition{Start: 0, Blocks: 1 << 12}); err != nil {
		t.Fatal(err)
	}
	_, err := k.NewProcess("overflow", aeokern.Partition{Start: 1 << 11, Blocks: 1 << 12})
	if !errors.Is(err, aeokern.ErrBadPartition) {
		t.Fatalf("err = %v, want ErrBadPartition", err)
	}
}

func TestQueuePairAccounting(t *testing.T) {
	_, k := newKernel(t, 1)
	p, _ := k.NewProcess("p", aeokern.Partition{Start: 0, Blocks: 64})
	q1, err := k.AllocQueuePair(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < aeokern.ProcessQPLimit; i++ {
		if _, err := k.AllocQueuePair(p, 8); err != nil {
			t.Fatalf("queue pair %d: %v", i, err)
		}
	}
	if _, err := k.AllocQueuePair(p, 8); !errors.Is(err, aeokern.ErrQPLimit) {
		t.Fatalf("err = %v, want ErrQPLimit", err)
	}
	k.FreeQueuePair(p, q1)
	if _, err := k.AllocQueuePair(p, 8); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestVectorAllocationDistinct(t *testing.T) {
	_, k := newKernel(t, 1)
	seen := map[int]bool{}
	for i := 0; i < 10; i++ {
		v, err := k.AllocVector(nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[v] {
			t.Fatalf("vector %d allocated twice", v)
		}
		seen[v] = true
	}
}

// TestFreeVectorRecyclesAndDropsOwner: a freed vector is handed out again
// before the range grows, and an interrupt arriving for it in between
// reaches nobody.
func TestFreeVectorRecyclesAndDropsOwner(t *testing.T) {
	eng, k := newKernel(t, 1)
	delivered := 0
	v, _ := k.AllocVector(func(*sim.IRQCtx, int) { delivered++ })
	k.FreeVector(v)
	eng.Core(0).RaiseIRQ(v)
	eng.Run(0)
	if delivered != 0 || k.SpuriousKernelIRQs != 1 {
		t.Fatalf("freed vector delivered %d times, %d spurious; want 0 and 1", delivered, k.SpuriousKernelIRQs)
	}
	if again, _ := k.AllocVector(nil); again != v {
		t.Fatalf("AllocVector after FreeVector(%d) = %d, want the freed vector back", v, again)
	}
}

// TestContextSwitchMaintainsUINV: the kernel must install a thread's UINV
// on switch-in and clear it on switch-out (§4.2).
func TestContextSwitchMaintainsUINV(t *testing.T) {
	eng, k := newKernel(t, 1)
	core := eng.Core(0)
	upid := &uintr.UPID{NV: 0x41, DestCPU: 0}

	var insideVec, afterBlockVec int
	tk := eng.Spawn("uintr-thread", core, func(env *sim.Env) {
		insideVec = k.UI(core).UINV
		env.Sleep(1000) // switch out and back in
		afterBlockVec = k.UI(core).UINV
	})
	k.RegisterThreadUintr(tk, 0x41, upid, nil)
	// A second thread to observe the cleared state.
	var otherVec int
	eng.Spawn("other", core, func(env *sim.Env) {
		otherVec = k.UI(core).UINV
	})
	eng.Run(0)
	if insideVec != 0x41 {
		t.Fatalf("UINV while thread runs = %#x, want 0x41", insideVec)
	}
	if afterBlockVec != 0x41 {
		t.Fatalf("UINV after re-dispatch = %#x, want 0x41", afterBlockVec)
	}
	if otherVec == 0x41 {
		t.Fatal("UINV leaked to another thread")
	}
}

// TestOutOfScheduleFallsToKernelOwner: an interrupt for a thread that is not
// current must reach the registered kernel delivery callback.
func TestOutOfScheduleFallsToKernelOwner(t *testing.T) {
	eng, k := newKernel(t, 1)
	core := eng.Core(0)
	delivered := 0
	vec, err := k.AllocVector(func(ctx *sim.IRQCtx, v int) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	// No thread registered for the vector is current: kernel path.
	eng.Spawn("busy", core, func(env *sim.Env) {
		env.Exec(1000)
	})
	eng.Schedule(500, func() { core.RaiseIRQ(vec) })
	eng.Run(0)
	if delivered != 1 {
		t.Fatalf("kernel owner delivered %d times, want 1", delivered)
	}
	if k.SpuriousKernelIRQs != 0 {
		t.Fatalf("spurious IRQs = %d", k.SpuriousKernelIRQs)
	}
}

// TestUnclaimedVectorCountsSpurious.
func TestUnclaimedVectorCountsSpurious(t *testing.T) {
	eng, k := newKernel(t, 1)
	eng.Core(0).RaiseIRQ(0xfe)
	eng.Run(0)
	if k.SpuriousKernelIRQs != 1 {
		t.Fatalf("spurious = %d, want 1", k.SpuriousKernelIRQs)
	}
}

func TestCheckMapProtDelegates(t *testing.T) {
	_, k := newKernel(t, 1)
	if err := k.CheckMapProt(0b011); err != nil { // read|write
		t.Fatal(err)
	}
	if err := k.CheckMapProt(0b110); err == nil { // write|exec
		t.Fatal("W^X mapping accepted")
	}
}
