package aeosvc

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"aeolia/internal/fifo"
	"aeolia/internal/netsim"
	"aeolia/internal/uintr"
)

// TenantConfig is one tenant's admission policy.
type TenantConfig struct {
	ID uint16
	// Weight is the tenant's share in the weighted fair dequeue
	// (default 1).
	Weight int
	// OpsPerSec refills the tenant's token bucket; 0 means unlimited.
	OpsPerSec float64
	// Burst is the bucket capacity in requests (default 8).
	Burst int
	// MaxBacklog bounds the tenant's admitted-but-unserved queue; a full
	// backlog sheds even when tokens remain (default 0 = unbounded).
	MaxBacklog int
	// Class is the tenant's delivery priority class. Only meaningful on a
	// QoS admission controller (NewAdmissionQoS): dequeue is strict
	// priority across classes, weighted fair within a class, and workers
	// tag the tenant's I/O so urgent completions bypass coalescing. The
	// zero value is ClassUrgent — set Class explicitly for every tenant
	// when QoS is on.
	Class uintr.Class
}

// TenantStats is one tenant's admission accounting.
type TenantStats struct {
	ID                       uint16
	Class                    uintr.Class
	Received, Admitted, Shed uint64
}

// pending is one received request waiting for a worker. The server
// recycles it once the reply is sent.
type pending struct {
	req    Request
	conn   int32 // connection id (netsim source endpoint)
	recvAt time.Duration
	// frame is the request as it arrived: its source names the reply
	// endpoint, and its payload backs req.Data until the reply is sent.
	frame netsim.Msg
}

// tenantState is the runtime side of one TenantConfig.
type tenantState struct {
	cfg     TenantConfig
	tokens  float64
	last    time.Duration // last refill
	queue   fifo.Queue[*pending]
	deficit float64 // weighted-fair dequeue credit

	// Atomic: snapshotted by TenantStats while the dispatcher is still
	// admitting (experiments poll mid-run), and hammered alongside the
	// server counters in the race-tier test.
	received, admitted, shed atomic.Uint64
}

func (ts *tenantState) weight() float64 {
	if ts.cfg.Weight > 0 {
		return float64(ts.cfg.Weight)
	}
	return 1
}

func (ts *tenantState) burst() float64 {
	if ts.cfg.Burst > 0 {
		return float64(ts.cfg.Burst)
	}
	return 8
}

// refill tops the bucket up to now.
func (ts *tenantState) refill(now time.Duration) {
	if ts.cfg.OpsPerSec <= 0 {
		return
	}
	ts.tokens += ts.cfg.OpsPerSec * (now - ts.last).Seconds()
	if b := ts.burst(); ts.tokens > b {
		ts.tokens = b
	}
	ts.last = now
}

// admGroup is one dequeue domain: the tenants it serves (ID-sorted) and a
// persistent DRR cursor. A non-QoS controller has a single group; a QoS
// controller has one group per priority class, drained strict-highest-first.
type admGroup struct {
	members []*tenantState // sorted by ID for deterministic dequeue
	rr      int            // round-robin cursor
}

// Admission is the per-tenant token-bucket rate limiter plus the weighted
// fair queue feeding the worker pool. When disabled it still provides the
// (unbounded, unlimited) queues, so the dequeue path is identical in both
// modes. Engine-single-threaded, like everything in the simulation.
type Admission struct {
	enabled bool
	qos     bool
	tenants []*tenantState // sorted by ID (stats/accounting order)
	byID    map[uint16]*tenantState
	groups  []*admGroup // dequeue order: 1 group, or NumClasses when qos
	queued  int
}

// NewAdmission builds the admission controller. Requests from tenants not
// in cfgs are assigned a default (unlimited) tenant config on first use
// only when enabled is false; with admission enabled, unknown tenants are
// shed outright.
func NewAdmission(enabled bool, cfgs []TenantConfig) *Admission {
	return NewAdmissionQoS(enabled, false, cfgs)
}

// NewAdmissionQoS builds a class-aware admission controller: Next drains
// strictly highest-class-first (ClassUrgent before ClassHigh before ...),
// with weighted fair dequeue among the tenants of each class. With qos
// false it degenerates to the single-queue controller, byte-for-byte
// compatible with NewAdmission.
func NewAdmissionQoS(enabled, qos bool, cfgs []TenantConfig) *Admission {
	a := &Admission{enabled: enabled, qos: qos, byID: make(map[uint16]*tenantState)}
	n := 1
	if qos {
		n = int(uintr.NumClasses)
	}
	a.groups = make([]*admGroup, n)
	for i := range a.groups {
		a.groups[i] = &admGroup{}
	}
	for _, c := range cfgs {
		a.addTenant(c)
	}
	return a
}

// group returns the dequeue group a tenant belongs to.
func (a *Admission) group(ts *tenantState) *admGroup {
	if !a.qos {
		return a.groups[0]
	}
	cl := ts.cfg.Class
	if cl >= uintr.NumClasses {
		cl = uintr.ClassBulk
	}
	return a.groups[cl]
}

func (a *Admission) addTenant(c TenantConfig) *tenantState {
	ts := &tenantState{cfg: c, tokens: 0}
	ts.tokens = ts.burst() // start full
	a.byID[c.ID] = ts
	a.tenants = append(a.tenants, ts)
	sort.Slice(a.tenants, func(i, j int) bool {
		return a.tenants[i].cfg.ID < a.tenants[j].cfg.ID
	})
	g := a.group(ts)
	g.members = append(g.members, ts)
	sort.Slice(g.members, func(i, j int) bool {
		return g.members[i].cfg.ID < g.members[j].cfg.ID
	})
	g.rr = 0
	return ts
}

// Enabled reports whether rate limits and backlog bounds are enforced.
func (a *Admission) Enabled() bool { return a.enabled }

// QoS reports whether dequeue is strict-priority across classes.
func (a *Admission) QoS() bool { return a.qos }

// ClassOf returns the class the controller will serve a tenant's requests
// under (ClassNormal for tenants it has not seen).
func (a *Admission) ClassOf(tenant uint16) uintr.Class {
	if ts := a.byID[tenant]; ts != nil {
		if ts.cfg.Class < uintr.NumClasses {
			return ts.cfg.Class
		}
		return uintr.ClassBulk
	}
	return uintr.ClassNormal
}

// Queued returns the number of admitted requests waiting for a worker.
func (a *Admission) Queued() int { return a.queued }

// Offer presents one received request; it either admits (enqueues) it and
// returns true, or sheds it and returns false.
func (a *Admission) Offer(now time.Duration, p *pending) bool {
	ts := a.byID[p.req.Tenant]
	if ts == nil {
		if a.enabled {
			// Unknown tenant under enforcement: shed (no bucket to
			// charge, no stats row to lose — count it on a synthetic
			// row so accounting still balances).
			ts = a.addTenant(TenantConfig{ID: p.req.Tenant, OpsPerSec: -1})
			ts.received.Add(1)
			ts.shed.Add(1)
			return false
		}
		ts = a.addTenant(TenantConfig{ID: p.req.Tenant})
	}
	ts.received.Add(1)
	if a.enabled {
		if ts.cfg.OpsPerSec < 0 {
			ts.shed.Add(1)
			return false
		}
		ts.refill(now)
		if ts.cfg.OpsPerSec > 0 && ts.tokens < 1 {
			ts.shed.Add(1)
			return false
		}
		if ts.cfg.MaxBacklog > 0 && ts.queue.Len() >= ts.cfg.MaxBacklog {
			ts.shed.Add(1)
			return false
		}
		if ts.cfg.OpsPerSec > 0 {
			ts.tokens--
		}
	}
	ts.admitted.Add(1)
	ts.queue.Push(p)
	a.queued++
	return true
}

// Next pops the next admitted request. Groups are visited strictly in
// priority order (a lower class dequeues only when every higher class is
// empty; without QoS there is a single group). Within a group, dequeue is
// deficit-weighted round robin: each visit grants a tenant credit
// proportional to its weight, and a tenant serves one request per unit of
// credit. Returns nil when every queue is empty. Deterministic: tenants
// are visited in ID order from a persistent per-group cursor.
func (a *Admission) Next() *pending {
	if a.queued == 0 {
		return nil
	}
	for _, g := range a.groups {
		if p := g.next(); p != nil {
			a.queued--
			return p
		}
	}
	// Unreachable while queued > 0, but keep the contract total.
	return nil
}

// next pops one request from the group under DRR, or nil if the group has
// no backlog.
func (g *admGroup) next() *pending {
	// Two sweeps bound the search: a backlogged tenant is reached and
	// credited within one lap of the cursor.
	for pass := 0; pass < 2*len(g.members); pass++ {
		ts := g.members[g.rr%len(g.members)]
		if ts.queue.Len() == 0 {
			// An idle tenant holds no credit (classic DRR reset).
			ts.deficit = 0
			g.rr++
			continue
		}
		if ts.deficit < 1 {
			// The cursor just arrived: grant this round's credit.
			ts.deficit += ts.weight()
		}
		ts.deficit--
		p, _ := ts.queue.Pop()
		if ts.deficit < 1 {
			// Credit exhausted; the next dequeue moves on.
			g.rr++
		}
		return p
	}
	return nil
}

// TenantStats returns per-tenant accounting, sorted by tenant id.
func (a *Admission) TenantStats() []TenantStats {
	out := make([]TenantStats, 0, len(a.tenants))
	for _, ts := range a.tenants {
		out = append(out, TenantStats{ID: ts.cfg.ID, Class: ts.cfg.Class,
			Received: ts.received.Load(), Admitted: ts.admitted.Load(), Shed: ts.shed.Load()})
	}
	return out
}

// CheckAccounting verifies received == admitted + shed for every tenant.
func (a *Admission) CheckAccounting() error {
	for _, ts := range a.tenants {
		if ts.received.Load() != ts.admitted.Load()+ts.shed.Load() {
			return fmt.Errorf("aeosvc: tenant %d accounting mismatch: received %d != admitted %d + shed %d",
				ts.cfg.ID, ts.received.Load(), ts.admitted.Load(), ts.shed.Load())
		}
	}
	return nil
}
