package aeosvc

import (
	"sync"
	"testing"
)

// TestServerCounterRaceHammer pounds the Server's atomic stats and the
// per-tenant admission counters from real OS goroutines. In the simulation
// these are bumped from worker tasks, the dispatcher, and IRQ-context
// handlers; the engine serializes them, so this hammer is what gives the
// race detector genuinely parallel access. Run with -race; the balance
// assertions also catch lost updates without it.
func TestServerCounterRaceHammer(t *testing.T) {
	s := &Server{}
	adm := NewAdmission(false, false, []TenantConfig{{ID: 1}})
	ts := adm.byID[1]
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
				s.Received.Add(1)
				if i%4 == 0 {
					s.Shed.Add(1)
					ts.received.Add(1)
					ts.shed.Add(1)
				} else {
					s.Admitted.Add(1)
					s.FSOps.Add(1)
					ts.received.Add(1)
					ts.admitted.Add(1)
				}
				s.Replied.Add(1)
				s.rx.HandlerRuns.Add(1)
				s.rx.KernelDeliveries.Add(1)
				s.rx.ActiveChecks.Add(1)
				s.rx.BlockedWaits.Add(1)
				s.ReplyRetries.Add(1)
				s.BadRequests.Add(1)
			}
		}()
	}
	wg.Wait()

	const total = workers * rounds
	shed := uint64(total / 4)
	if got := s.Received.Load(); got != total {
		t.Fatalf("lost Received updates: %d != %d", got, total)
	}
	if s.Shed.Load() != shed || s.Admitted.Load() != total-shed {
		t.Fatalf("lost admit/shed updates: %d/%d", s.Admitted.Load(), s.Shed.Load())
	}
	if s.rx.HandlerRuns.Load() != total || s.rx.KernelDeliveries.Load() != total ||
		s.rx.ActiveChecks.Load() != total || s.rx.BlockedWaits.Load() != total ||
		s.ReplyRetries.Load() != total || s.BadRequests.Load() != total {
		t.Fatal("lost handler-side counter updates")
	}
	if st := adm.TenantStats(); len(st) != 1 ||
		st[0].Received != total || st[0].Admitted != total-shed || st[0].Shed != shed {
		t.Fatalf("lost tenant counter updates: %+v", adm.TenantStats())
	}
	if err := adm.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}
