package aeosvc

import (
	"testing"
	"time"
)

func mkPending(tenant uint16, id uint64) *pending {
	return &pending{req: Request{ID: id, Tenant: tenant, Op: OpRead}}
}

func TestAdmissionTokenBucket(t *testing.T) {
	// 1000 ops/s, burst 4: four requests pass at t=0, the fifth sheds, and
	// one token returns every millisecond.
	a := NewAdmission(true, false, []TenantConfig{{ID: 1, OpsPerSec: 1000, Burst: 4}})
	var id uint64
	for i := 0; i < 4; i++ {
		id++
		if !a.Offer(0, mkPending(1, id)) {
			t.Fatalf("request %d shed inside the burst", i)
		}
	}
	id++
	if a.Offer(0, mkPending(1, id)) {
		t.Fatal("request beyond the burst admitted")
	}
	id++
	if !a.Offer(time.Millisecond, mkPending(1, id)) {
		t.Fatal("request shed after a full refill interval")
	}
	id++
	if a.Offer(time.Millisecond, mkPending(1, id)) {
		t.Fatal("second request admitted on one refilled token")
	}
	st := a.TenantStats()
	if len(st) != 1 || st[0].Received != 7 || st[0].Admitted != 5 || st[0].Shed != 2 {
		t.Fatalf("stats = %+v, want received 7 admitted 5 shed 2", st)
	}
	if err := a.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionBacklogBound(t *testing.T) {
	a := NewAdmission(true, false, []TenantConfig{{ID: 1, Burst: 100, MaxBacklog: 3}})
	var id uint64
	admitted := 0
	for i := 0; i < 5; i++ {
		id++
		if a.Offer(0, mkPending(1, id)) {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("admitted %d with backlog bound 3", admitted)
	}
	// Draining one slot readmits.
	if a.Next() == nil {
		t.Fatal("backlogged tenant had nothing to dequeue")
	}
	id++
	if !a.Offer(0, mkPending(1, id)) {
		t.Fatal("request shed after the backlog drained below its bound")
	}
}

func TestAdmissionDisabledAdmitsAll(t *testing.T) {
	a := NewAdmission(false, false, nil)
	var id uint64
	for i := 0; i < 100; i++ {
		id++
		// Unknown tenants, zero-rate configs — nothing sheds when off.
		if !a.Offer(0, mkPending(uint16(i%3), id)) {
			t.Fatalf("request %d shed with admission disabled", i)
		}
	}
	if a.Queued() != 100 {
		t.Fatalf("queued = %d, want 100", a.Queued())
	}
	if err := a.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionUnknownTenantShedWhenEnabled(t *testing.T) {
	a := NewAdmission(true, false, []TenantConfig{{ID: 1}})
	if a.Offer(0, mkPending(99, 1)) {
		t.Fatal("unknown tenant admitted under enforcement")
	}
	if a.Offer(time.Second, mkPending(99, 2)) {
		t.Fatal("unknown tenant admitted on the second try")
	}
	if err := a.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedFairDequeue(t *testing.T) {
	// Weight 3 vs weight 1, both with deep backlogs: over any window the
	// dequeue ratio tracks 3:1.
	a := NewAdmission(true, false, []TenantConfig{
		{ID: 1, Weight: 3, Burst: 100},
		{ID: 2, Weight: 1, Burst: 100},
	})
	var id uint64
	for i := 0; i < 40; i++ {
		id++
		if !a.Offer(0, mkPending(1, id)) {
			t.Fatal("tenant 1 shed during fill")
		}
		id++
		if !a.Offer(0, mkPending(2, id)) {
			t.Fatal("tenant 2 shed during fill")
		}
	}
	counts := map[uint16]int{}
	for i := 0; i < 40; i++ {
		p := a.Next()
		if p == nil {
			t.Fatalf("dequeue %d returned nil with %d queued", i, a.Queued())
		}
		counts[p.req.Tenant]++
	}
	if counts[1] != 30 || counts[2] != 10 {
		t.Fatalf("dequeue split = %v, want 30/10 for weights 3:1", counts)
	}
}

func TestDequeueDrainsIdleTenants(t *testing.T) {
	// A heavyweight tenant with an empty queue must not starve the other.
	a := NewAdmission(true, false, []TenantConfig{
		{ID: 1, Weight: 100, Burst: 100},
		{ID: 2, Weight: 1, Burst: 100},
	})
	for i := 0; i < 5; i++ {
		if !a.Offer(0, mkPending(2, uint64(i+1))) {
			t.Fatal("fill shed")
		}
	}
	for i := 0; i < 5; i++ {
		p := a.Next()
		if p == nil || p.req.Tenant != 2 {
			t.Fatalf("dequeue %d = %+v, want tenant 2", i, p)
		}
	}
	if a.Next() != nil {
		t.Fatal("empty controller returned a request")
	}
}

func TestDequeueFIFOWithinTenant(t *testing.T) {
	a := NewAdmission(false, false, nil)
	for i := 1; i <= 10; i++ {
		a.Offer(0, mkPending(1, uint64(i)))
	}
	for i := 1; i <= 10; i++ {
		p := a.Next()
		if p == nil || p.req.ID != uint64(i) {
			t.Fatalf("dequeue %d = %+v, want id %d", i, p, i)
		}
	}
}
