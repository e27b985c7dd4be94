package experiments

import (
	"fmt"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/aeosvc"
	"aeolia/internal/attack"
	"aeolia/internal/machine"
	"aeolia/internal/netsim"
	"aeolia/internal/nvme"
	"aeolia/internal/report"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
	"aeolia/internal/uintr"
	"aeolia/internal/workload"
)

// SLO study parameters: a 6-core host (dispatcher, two workers, two client
// cores, one antagonist core) serving an urgent tenant, a normal tenant,
// and — in the io_flood cells — a misbehaving bulk tenant, while one
// antagonist runs. "Enforcement on" is the full QoS stack: per-tenant
// admission, strict-priority dequeue across classes, per-class I/O
// tagging, graded CQ coalescing with urgent bypass, and prioritized uintr
// delivery.
// "Enforcement off" is the plain FIFO/fair baseline.
const (
	sloSeed    = 73
	sloBlocks  = 1 << 15
	sloHorizon = 30 * time.Second
	// sloDeliveryBound is the urgent class's post→delivery latency SLO,
	// checked by the trace analyzer over every in-schedule delivery.
	sloDeliveryBound = 200 * time.Microsecond
	// sloUrgentTenant / sloFloodTenant are the tenant ids the threshold
	// and regression tests key on.
	sloUrgentTenant = 0
	sloNormalTenant = 1
	sloFloodTenant  = 2
)

// sloTenants is the tenant table: the urgent tenant is latency-critical
// and lightly loaded; the normal tenant provides steady background; the
// flood tenant is the antagonist's identity — low class, tight rate, small
// backlog, so enforcement can contain it.
var sloTenants = []aeosvc.TenantConfig{
	{ID: sloUrgentTenant, Weight: 1, Class: uintr.ClassUrgent},
	{ID: sloNormalTenant, Weight: 1, MaxBacklog: 64, Class: uintr.ClassNormal},
	{ID: sloFloodTenant, Weight: 1, OpsPerSec: 3000, Burst: 8, MaxBacklog: 16, Class: uintr.ClassBulk},
}

// sloLink is the fabric configuration for every client<->service link.
var sloLink = netsim.Config{
	Latency:     5 * time.Microsecond,
	BytesPerSec: 10e9,
	Jitter:      2 * time.Microsecond,
	QueueDepth:  256,
}

// sloAntagonists enumerates the study's adversarial backgrounds.
var sloAntagonists = []string{"none", "cpu_hog", "io_flood", "cache_thrash"}

// sloTenantResult is one measured tenant's latency digest in one cell.
type sloTenantResult struct {
	Tenant  uint16
	Class   uintr.Class
	Ops     uint64
	Shed    uint64
	Latency workload.LatencyRecorder
}

// sloCellResult is one (antagonist, enforcement) cell.
type sloCellResult struct {
	Tenants  map[uint16]*sloTenantResult
	Srv      *aeosvc.Server
	AntagOps uint64
	// Preemptions counts nested urgent-over-lower deliveries across cores.
	Preemptions uint64
}

// sloRun boots the machine + fabric + service with the named antagonist
// running, drives the measured clients to completion, verifies the books,
// and returns per-tenant latency digests. A non-nil tracer captures the
// full event stream (and arms the urgent delivery-latency invariant).
func sloRun(antagonist string, enforce bool, tr *trace.Tracer) (*sloCellResult, error) {
	m := machine.New(6, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: sloBlocks})
	defer m.Eng.Shutdown()
	m.Eng.Tracer = tr

	coalesce := nvme.Coalescing{MaxEvents: 8, MaxDelay: 100 * time.Microsecond}
	if enforce {
		// Urgent-class completions (Prio 1 = ClassUrgent) ring immediately;
		// the rest grade the aggregation window by class (each more urgent
		// class halves it), so normal-class worker occupancy can't stretch
		// to the full MaxDelay while bulk still coalesces fully.
		coalesce.UrgentMax = uint8(uintr.ClassUrgent) + 1
		coalesce.ClassDelays = nvme.GradedDelays(coalesce.MaxDelay, int(uintr.NumClasses))
	}
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{
		QoS:      enforce,
		Coalesce: coalesce,
		// A bounded cache in every cell, small enough for the thrasher's
		// working set to evict the measured tenants' pages. The flusher
		// shares the antagonist core: on core 0 it would contend with the
		// rx dispatcher and pollute the measured tenants' first ops.
		Cache: aeofs.CacheConfig{CacheBytes: 1 << 18, MaxReadahead: 8, FlusherCore: 5},
	})
	if err != nil {
		return nil, err
	}
	if tr != nil && enforce {
		tr.Emit(m.Eng.Now(), trace.SLOBound, -1, -1, uint32(uintr.ClassUrgent), 0, uint64(sloDeliveryBound))
	}
	fab := netsim.New(m.Eng, sloSeed)
	srv := aeosvc.NewServer(fab, m.Kern, fi.Proc.Gate, fi.FS, aeosvc.Config{
		Admission: enforce,
		QoS:       enforce,
		IO:        fi.Proc.Driver,
		Tenants:   sloTenants,
	})
	srv.Start(m.Eng.Core(0), []*sim.Core{m.Eng.Core(1), m.Eng.Core(2)})

	// Measured fleet: four urgent QD1 clients (p99.9 needs samples) and
	// two normal QD2 clients.
	type cliSpec struct {
		tenant uint16
		qd     int
		ops    int
	}
	specs := []cliSpec{
		{sloUrgentTenant, 1, 250}, {sloUrgentTenant, 1, 250},
		{sloUrgentTenant, 1, 250}, {sloUrgentTenant, 1, 250},
		{sloNormalTenant, 2, 150}, {sloNormalTenant, 2, 150},
	}
	clients := make([]*aeosvc.Client, len(specs))
	for i, sp := range specs {
		// The urgent tenant is a pure reader (the latency-critical
		// profile); writes would couple its tail to the cache's dirty
		// throttling, which charges the writer, not the antagonist.
		readFrac := 1.0
		if sp.tenant == sloNormalTenant {
			readFrac = 0.7
		}
		c := aeosvc.NewClient(fab, "svc", aeosvc.ClientConfig{
			ID:       i,
			Tenant:   sp.tenant,
			Class:    uint8(sloTenants[sp.tenant].Class),
			QD:       sp.qd,
			Ops:      sp.ops,
			ReadFrac: readFrac,
			IOBytes:  4096,
			Seed:     sloSeed*1000 + int64(i),
		})
		fab.Connect(c.EndpointName(), "svc", sloLink)
		fab.Connect("svc", c.EndpointName(), sloLink)
		clients[i] = c
	}

	// The antagonist: the CPU hog contends a worker (= handler) core, the
	// IO flood hammers the service as the bulk tenant, the cache thrasher
	// churns the shared page cache from the spare core.
	var ants []*attack.Antagonist
	switch antagonist {
	case "none":
	case "cpu_hog":
		ants = append(ants, attack.SpawnCPUHog(m.Eng, m.Eng.Core(1)))
	case "io_flood":
		ants = append(ants, attack.SpawnIOFlood(m.Eng, fab, "svc", m.Eng.Core(5), attack.FloodConfig{
			Tenant:    sloFloodTenant,
			Class:     uint8(uintr.ClassBulk),
			QD:        16,
			IOBytes:   16384,
			FileBytes: 1 << 20,
			Seed:      sloSeed * 77,
			Link:      sloLink,
		}))
	case "cache_thrash":
		ants = append(ants, attack.SpawnCacheThrasher(m.Eng, m.Eng.Core(5), fi.FS, attack.ThrashConfig{
			FileBytes: 1 << 20,
			Seed:      sloSeed * 91,
		}))
	default:
		return nil, fmt.Errorf("fig_slo: unknown antagonist %q", antagonist)
	}
	// Warm up: the antagonists' setup writes (flood prefill, thrash
	// scratch) dirty far more than the cache's hard limit, and the write-back
	// flusher retires them in one vectored device burst. Let that burst
	// drain before the measured clients start — the steady-state antagonism
	// is read-only, which is the contention the study is about.
	m.Eng.Run(m.Eng.Now() + 50*time.Millisecond)

	spec := &aeosvc.LoadSpec{
		Eng:     m.Eng,
		Clients: clients,
		CoreFor: func(i int) *sim.Core { return m.Eng.Core(3 + i%2) },
		Horizon: sloHorizon,
		Stop: func() {
			// Quiesce antagonists first and let their in-flight requests
			// drain so the admission books balance, then stop the server.
			for _, a := range ants {
				a.Stop()
			}
			m.Eng.Run(m.Eng.Now() + 5*time.Millisecond)
			srv.Stop()
		},
	}
	_, crs, err := spec.Run()
	if err != nil {
		return nil, fmt.Errorf("fig_slo %s/%v: %w", antagonist, enforce, err)
	}
	if err := srv.CheckAccounting(); err != nil {
		return nil, fmt.Errorf("fig_slo %s/%v: %w", antagonist, enforce, err)
	}

	out := &sloCellResult{Tenants: make(map[uint16]*sloTenantResult), Srv: srv}
	for i, cr := range crs {
		sp := specs[i]
		tr := out.Tenants[sp.tenant]
		if tr == nil {
			tr = &sloTenantResult{Tenant: sp.tenant, Class: sloTenants[sp.tenant].Class}
			out.Tenants[sp.tenant] = tr
		}
		tr.Ops += cr.Ops
		tr.Shed += cr.Shed
		for _, d := range cr.Samples {
			tr.Latency.Record(d)
		}
	}
	for _, a := range ants {
		out.AntagOps += a.Ops
	}
	for _, c := range m.Eng.Cores() {
		out.Preemptions += m.Kern.UI(c).Preemptions
	}
	return out, nil
}

// sloGateAntagonist is the antagonist the headline criterion is read under
// (and the traced cell runs against): enforcement must cut the urgent
// tenant's p99.9 completion latency by at least sloGateCut.
const (
	sloGateAntagonist = "io_flood"
	sloGateCut        = 2
)

// sloTailGate checks one antagonist's off/on pair of urgent p99.9 tails.
func sloTailGate(antagonist string, off, on time.Duration) error {
	if antagonist == sloGateAntagonist && (on <= 0 || off < sloGateCut*on) {
		return fmt.Errorf("fig_slo %s: urgent p99.9 %v unenforced vs %v enforced, want >= %dx lower",
			antagonist, off, on, sloGateCut)
	}
	return nil
}

// FigSlo regenerates the SLO-enforcement study: per-tenant p50/p99/p99.9
// completion latency for the urgent and normal tenants while each
// antagonist runs, with the QoS stack off and on. The io_flood pair must
// pass sloTailGate, or the run is an error.
func FigSlo() ([]*report.Table, error) {
	t := &report.Table{
		ID:    "fig_slo",
		Title: "Per-tenant tail latency under antagonists, SLO enforcement off vs on",
		Columns: []string{"antagonist", "enforce", "tenant", "class", "ops",
			"p50_us", "p99_us", "p999_us", "shed", "preempt"},
	}
	for _, antagonist := range sloAntagonists {
		var urgentTail [2]time.Duration // off, on
		for i, enforce := range []bool{false, true} {
			r, err := sloRun(antagonist, enforce, nil)
			if err != nil {
				return nil, err
			}
			urgentTail[i] = r.Tenants[sloUrgentTenant].Latency.Percentile(99.9)
			mode := "off"
			if enforce {
				mode = "on"
			}
			for _, tenant := range []uint16{sloUrgentTenant, sloNormalTenant} {
				tr := r.Tenants[tenant]
				name := "urgent"
				if tenant == sloNormalTenant {
					name = "normal"
				}
				t.AddRowf(antagonist, mode, name, tr.Class.String(),
					fmt.Sprintf("%d", tr.Ops),
					usec(tr.Latency.Percentile(50)),
					usec(tr.Latency.Percentile(99)),
					usec(tr.Latency.Percentile(99.9)),
					fmt.Sprintf("%d", tr.Shed),
					fmt.Sprintf("%d", r.Preemptions))
			}
		}
		if err := sloTailGate(antagonist, urgentTail[0], urgentTail[1]); err != nil {
			return nil, err
		}
	}
	t.Note("enforcement on = admission + strict-priority dequeue + per-class I/O tags + graded CQ coalescing (urgent bypass) + prioritized uintr delivery")
	t.Note("antagonists: cpu_hog pinned to a worker core; io_flood QD16 16KiB reads on the bulk tenant, no backoff; cache_thrash 1MiB scratch vs 256KiB cache budget")
	t.Note("urgent delivery SLO bound %v (checked against the trace in the -slo gate)", sloDeliveryBound)
	return []*report.Table{t}, nil
}

// sloTraceGate checks the traced cell: it measured something adversarial
// (urgent and antagonist ops both completed), no invariant — priority-ordered
// delivery and the urgent delivery bound armed by SLOBound included — was
// violated, and every request left a complete service chain. (The admission
// books are sloRun's to check, in every cell.)
func sloTraceGate(c *tracedCell, urgentOps, antagOps uint64) error {
	if urgentOps == 0 {
		return fmt.Errorf("%s: urgent tenant completed no ops", c.name)
	}
	if antagOps == 0 {
		return fmt.Errorf("%s: antagonist completed no ops — the cell measured nothing adversarial", c.name)
	}
	if err := c.clean(trace.SLOBound); err != nil {
		return err
	}
	return c.svcChainsComplete()
}

// figSloTrace runs the io_flood/enforcement-on cell — the one where every
// QoS mechanism is live — with tracing on.
func figSloTrace() (*Traced, error) {
	tr := trace.New(6, 1<<19)
	r, err := sloRun(sloGateAntagonist, true, tr)
	if err != nil {
		return nil, err
	}
	c := captured("fig_slo "+sloGateAntagonist+"/on", tr)
	urgent := r.Tenants[sloUrgentTenant]
	return &Traced{
		Events: c.evs,
		Summary: fmt.Sprintf("urgent p99.9 %v under enforced %s, %d antagonist ops, %d preemptions, %d chains",
			urgent.Latency.Percentile(99.9), sloGateAntagonist, r.AntagOps, r.Preemptions, len(c.an.SvcChains)),
	}, sloTraceGate(c, urgent.Ops, r.AntagOps)
}
