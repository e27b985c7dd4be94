package experiments

import (
	"fmt"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/aeosvc"
	"aeolia/internal/machine"
	"aeolia/internal/netsim"
	"aeolia/internal/nvme"
	"aeolia/internal/report"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
	"aeolia/internal/workload"
)

// Client-scaling study parameters: a 5-core host (dispatcher, two workers,
// two client cores) serving up to 128 closed-loop clients through the
// service front-end. The per-tenant rates are sized well below the worker
// pool's capacity so the uncontrolled run queues deeply while the
// admission-controlled run paces arrivals near the base RTT.
const (
	svcSeed      = 42
	svcBlocks    = 1 << 15
	svcOpsPerCli = 24
	svcHorizon   = 20 * time.Second

	// svcRxIRQBound is the interrupt-mitigation gate: a dispatcher that is
	// never idle (admission off, >= 32 clients) drains its inbox with
	// notifications masked, so it may take at most this many notification
	// interrupts per received request. Unmasked, the figure is ~1.
	svcRxIRQBound = 0.05
)

// svcTenants is the admission policy table: four tenants with 4:2:1:1
// weights, identical rates, bounded backlogs. Clients map onto tenants
// round-robin (client i → tenant i%4).
var svcTenants = []aeosvc.TenantConfig{
	{ID: 0, Weight: 4, OpsPerSec: 15000, Burst: 16, MaxBacklog: 64},
	{ID: 1, Weight: 2, OpsPerSec: 15000, Burst: 16, MaxBacklog: 64},
	{ID: 2, Weight: 1, OpsPerSec: 15000, Burst: 16, MaxBacklog: 64},
	{ID: 3, Weight: 1, OpsPerSec: 15000, Burst: 16, MaxBacklog: 64},
}

// svcLink is the fabric configuration used for every client<->service link.
var svcLink = netsim.Config{
	Latency:     5 * time.Microsecond,
	BytesPerSec: 10e9,
	Jitter:      2 * time.Microsecond,
	QueueDepth:  256,
}

// svcScaleResult is one (clients, admission) cell of the sweep.
type svcScaleResult struct {
	Res  *workload.Result
	Shed uint64
	Srv  *aeosvc.Server
}

// svcScaleRun boots a machine + fabric + service, drives n closed-loop
// clients to completion, verifies the admission books, and returns the
// merged measurement. A non-nil tracer captures the full event stream.
func svcScaleRun(n int, admission bool, tr *trace.Tracer) (*svcScaleResult, error) {
	m := machine.New(5, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: svcBlocks})
	defer m.Eng.Shutdown()
	m.Eng.Tracer = tr
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{})
	if err != nil {
		return nil, err
	}
	fab := netsim.New(m.Eng, svcSeed)
	srv := aeosvc.NewServer(fab, m.Kern, fi.Proc.Gate, fi.FS, aeosvc.Config{
		Admission: admission,
		Tenants:   svcTenants,
	})
	srv.Start(m.Eng.Core(0), []*sim.Core{m.Eng.Core(1), m.Eng.Core(2)})

	clients := make([]*aeosvc.Client, n)
	for i := 0; i < n; i++ {
		c := aeosvc.NewClient(fab, "svc", aeosvc.ClientConfig{
			ID:       i,
			Tenant:   uint16(i % len(svcTenants)),
			QD:       2,
			Ops:      svcOpsPerCli,
			ReadFrac: 0.6,
			IOBytes:  4096,
			Seed:     svcSeed*1000 + int64(i),
		})
		fab.Connect(c.EndpointName(), "svc", svcLink)
		fab.Connect("svc", c.EndpointName(), svcLink)
		clients[i] = c
	}
	spec := &aeosvc.LoadSpec{
		Eng:     m.Eng,
		Clients: clients,
		CoreFor: func(i int) *sim.Core { return m.Eng.Core(3 + i%2) },
		Horizon: svcHorizon,
		Stop:    srv.Stop,
	}
	res, crs, err := spec.Run()
	if err != nil {
		return nil, err
	}
	if err := srv.CheckAccounting(); err != nil {
		return nil, err
	}
	out := &svcScaleResult{Res: res, Srv: srv}
	for _, cr := range crs {
		out.Shed += cr.Shed
	}
	return out, nil
}

// svcGateClients is the client count the admission criterion is read at: the
// sweep's largest, where the uncontrolled service queues deepest.
const svcGateClients = 128

// svcRxGate checks one cell against the interrupt-mitigation bound.
func svcRxGate(n int, admission bool, rxIRQs float64) error {
	if !admission && n >= 32 && rxIRQs > svcRxIRQBound {
		return fmt.Errorf("svcscale %d/off: %.3f rx notifications per request, bound %.2f", n, rxIRQs, svcRxIRQBound)
	}
	return nil
}

// svcTailGate checks the svcGateClients pair of cells: admission control
// must yield a strictly lower p99 than the uncontrolled configuration, by
// shedding (a budget that never binds proves nothing), and an uncontrolled
// service must shed nothing.
func svcTailGate(offP99, onP99 time.Duration, offShed, onShed uint64) error {
	if onP99 >= offP99 {
		return fmt.Errorf("svcscale %d clients: admission p99 %v, uncontrolled p99 %v: want strictly lower under control",
			svcGateClients, onP99, offP99)
	}
	if onShed == 0 {
		return fmt.Errorf("svcscale %d clients: admission control shed nothing — the budget is not binding", svcGateClients)
	}
	if offShed != 0 {
		return fmt.Errorf("svcscale %d clients: uncontrolled run shed %d requests", svcGateClients, offShed)
	}
	return nil
}

// SvcScale regenerates the service client-scaling study: p50/p99 completion
// latency and goodput vs client count, with and without per-tenant
// admission control. At high client counts the uncontrolled service queues
// every arrival and the tail explodes; admission sheds early (clients back
// off and retry) and keeps the tail near the base round trip. Every cell
// must pass svcRxGate and the largest pair svcTailGate, or the run is an
// error.
func SvcScale() ([]*report.Table, error) {
	t := &report.Table{
		ID:    "svcscale",
		Title: "Service latency and goodput vs client count, with and without admission control",
		Columns: []string{"clients", "admission", "p50_us", "p99_us",
			"goodput_kops", "shed", "rx_irqs_per_req"},
	}
	for _, n := range []int{8, 32, svcGateClients} {
		var cells [2]*svcScaleResult // off, on
		for i, admission := range []bool{false, true} {
			r, err := svcScaleRun(n, admission, nil)
			if err != nil {
				return nil, fmt.Errorf("svcscale %d/%v: %w", n, admission, err)
			}
			cells[i] = r
			mode := "off"
			if admission {
				mode = "on"
			}
			rxIRQs := float64(r.Srv.UPID().NotifySent.Load()) / float64(r.Srv.Stats().Received)
			if err := svcRxGate(n, admission, rxIRQs); err != nil {
				return nil, err
			}
			t.AddRowf(fmt.Sprintf("%d", n), mode,
				usec(r.Res.Latency.Percentile(50)),
				usec(r.Res.Latency.P99()),
				fmt.Sprintf("%.1f", r.Res.KOpsPerSec()),
				fmt.Sprintf("%d", r.Shed),
				fmt.Sprintf("%.3f", rxIRQs))
		}
		if n == svcGateClients {
			off, on := cells[0], cells[1]
			if err := svcTailGate(off.Res.Latency.P99(), on.Res.Latency.P99(), off.Shed, on.Shed); err != nil {
				return nil, err
			}
		}
	}
	t.Note("closed loop, QD 2 per client, %d ops each, 60%% reads; 4 tenants (weights 4:2:1:1), %d ops/s/tenant", svcOpsPerCli, 15000)
	t.Note("shed requests are retried after client-side exponential backoff; goodput counts completed ops only")
	t.Note("rx_irqs_per_req = dispatcher notification interrupts per received request; an admission-off cell with >= 32 clients above %.2f fails the run", svcRxIRQBound)
	return []*report.Table{t}, nil
}

// svcTraceGate checks the traced cell: every client finished its ops, every
// request left a complete service chain with no invariant violated, and each
// service stage has samples. (The admission books are svcScaleRun's to
// check, in every cell.)
func svcTraceGate(c *tracedCell, ops uint64) error {
	if want := uint64(svcGateClients * svcOpsPerCli); ops != want {
		return fmt.Errorf("%s: completed %d ops, want %d", c.name, ops, want)
	}
	if err := c.clean(); err != nil {
		return err
	}
	if err := c.svcChainsComplete(); err != nil {
		return err
	}
	hists := c.an.SvcStageHistograms()
	for _, stage := range []string{trace.SvcStageRecvToAdmit, trace.SvcStageAdmitToFSOp,
		trace.SvcStageFSOpToReply, trace.SvcStageEndToEnd} {
		if hists[stage].Count() == 0 {
			return fmt.Errorf("%s: stage %q has no samples", c.name, stage)
		}
	}
	return nil
}

// svcScaleTrace runs the largest admission-controlled cell with tracing on
// and reports the per-stage service latency table the analyzer
// reconstructed from the stream.
func svcScaleTrace() (*Traced, error) {
	tr := trace.New(5, 1<<19)
	r, err := svcScaleRun(svcGateClients, true, tr)
	if err != nil {
		return nil, err
	}
	c := captured(fmt.Sprintf("svcscale %d/on", svcGateClients), tr)
	return &Traced{
		Events: c.evs,
		Tables: []*report.Table{c.an.SvcLatencyTable()},
		Summary: fmt.Sprintf("%d ops, p99 %v, %d chains, %d shed",
			r.Res.Ops, r.Res.Latency.P99(), len(c.an.SvcChains), r.Shed),
	}, svcTraceGate(c, r.Res.Ops)
}
