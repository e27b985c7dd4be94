package aeosvc

import (
	"testing"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/alloctest"
	"aeolia/internal/machine"
	"aeolia/internal/netsim"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

// TestAllocsAdmissionStandingDepth is the admission half of the
// walking-base bug: a tenant queue that always holds three requests used to
// reallocate on every admit (Next popped with queue = queue[1:]). 10 000
// admit/dequeue cycles allocate nothing now.
func TestAllocsAdmissionStandingDepth(t *testing.T) {
	a := NewAdmission(false, false, []TenantConfig{{ID: 1}})
	p := mkPending(1, 1)
	for i := 0; i < 3; i++ {
		a.Offer(0, p)
	}
	alloctest.AtMost(t, 0, 10_000, func() {
		for i := 0; i < 10_000; i++ {
			a.Offer(0, p)
			if a.Next() == nil {
				t.Fatal("admitted request not dequeued")
			}
		}
	})
	if a.Queued() != 3 {
		t.Fatalf("%d requests queued, want the standing 3", a.Queued())
	}
}

// TestAllocsWriteRoundTrip: a steady-state 4 KiB write through the service
// — the client's request frame, rx, admission, a worker's WriteAt into a
// resident page, the reply frame — costs at most a few allocations. Request
// and reply frames come from the sending endpoints' free lists and go back
// when their receiver is done; pending records and client slots are
// recycled.
func TestAllocsWriteRoundTrip(t *testing.T) {
	m := machine.New(3, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 14})
	t.Cleanup(m.Eng.Shutdown)
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fab := netsim.New(m.Eng, 1)
	srv := NewServer(fab, m.Kern, fi.Proc.Gate, fi.FS, Config{})
	srv.Start(m.Eng.Core(0), []*sim.Core{m.Eng.Core(1)})
	c := NewClient(fab, "svc", ClientConfig{ID: 0, QD: 1, Ops: 1 << 20, IOBytes: 4096, FileBytes: 4 * 4096, Seed: 1})
	link := netsim.Config{Latency: 5 * time.Microsecond}
	fab.Connect(c.EndpointName(), "svc", link)
	fab.Connect("svc", c.EndpointName(), link)
	m.Eng.Spawn("client", m.Eng.Core(2), func(env *sim.Env) {
		if err := c.Run(env); err != nil {
			t.Error(err)
		}
	})
	ops := func(n int) func() {
		return func() {
			target := len(c.Result.Samples) + n
			for i := 0; len(c.Result.Samples) < target; i++ {
				if i > 100_000 || srv.Err() != nil {
					t.Fatalf("stuck at %d of %d writes: %v", len(c.Result.Samples), target, srv.Err())
				}
				m.Eng.Run(m.Eng.Now() + 10*time.Microsecond)
			}
		}
	}
	ops(200)() // every page of the file resident and dirty, every list warm
	alloctest.AtMost(t, 6, 100, ops(100))
}
