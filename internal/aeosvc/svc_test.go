package aeosvc

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/machine"
	"aeolia/internal/netsim"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

// rig is one assembled machine + fabric + service for the e2e tests.
type rig struct {
	m   *machine.Machine
	fi  *machine.FSInstance
	fab *netsim.Fabric
	srv *Server
	tr  *trace.Tracer
}

var testLink = netsim.Config{
	Latency:     5 * time.Microsecond,
	BytesPerSec: 10e9,
	Jitter:      2 * time.Microsecond,
	QueueDepth:  256,
}

// newRig builds a machine, formats AeoFS, and starts the service with its
// dispatcher on core 0 and workers on cores 1..workers.
func newRig(t *testing.T, cores, workers int, cfg Config) *rig {
	t.Helper()
	m := machine.New(cores, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 14})
	tr := trace.New(cores, 1<<16)
	m.Eng.Tracer = tr
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{})
	if err != nil {
		t.Fatalf("build fs: %v", err)
	}
	fab := netsim.New(m.Eng, 42)
	srv := NewServer(fab, m.Kern, fi.Proc.Gate, fi.FS, cfg)
	wcores := make([]*sim.Core, 0, workers)
	for i := 1; i <= workers; i++ {
		wcores = append(wcores, m.Eng.Core(i))
	}
	srv.Start(m.Eng.Core(0), wcores)
	return &rig{m: m, fi: fi, fab: fab, srv: srv, tr: tr}
}

// wire connects a client endpoint to the service, both directions.
func (r *rig) wire(name string) {
	r.fab.Connect(name, r.srv.Endpoint().Name(), testLink)
	r.fab.Connect(r.srv.Endpoint().Name(), name, testLink)
}

// drive runs the engine in slices until done reports true (or the attempt
// budget runs out), then stops the service and drains.
func (r *rig) drive(t *testing.T, done func() bool) {
	t.Helper()
	for i := 0; i < 4000 && !done(); i++ {
		r.m.Eng.Run(r.m.Eng.Now() + 10*time.Millisecond)
	}
	if !done() {
		t.Fatal("clients did not finish within the drive budget")
	}
	r.srv.Stop()
	r.m.Eng.Run(r.m.Eng.Now() + time.Millisecond)
	if err := r.srv.Err(); err != nil {
		t.Fatalf("server failure: %v", err)
	}
}

func (r *rig) analyze(t *testing.T) *trace.Analyzer {
	t.Helper()
	if r.tr.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events", r.tr.Dropped())
	}
	return trace.Analyze(r.tr.Events())
}

func TestServiceEndToEnd(t *testing.T) {
	r := newRig(t, 3, 1, Config{})
	r.wire("c0")

	finished := false
	r.m.Eng.Spawn("client", r.m.Eng.Core(2), func(env *sim.Env) {
		ep := r.fab.Endpoint("c0")
		var id uint64
		do := func(req Request) Response {
			id++
			req.ID = id
			if err := ep.Send(env, "svc", req.Encode()); err != nil {
				t.Errorf("send %v: %v", req.Op, err)
				return Response{}
			}
			resp, err := DecodeResponse(ep.Recv(env).Payload)
			if err != nil {
				t.Errorf("decode %v: %v", req.Op, err)
				return Response{}
			}
			if resp.ID != req.ID {
				t.Errorf("%v: reply id %d for request %d", req.Op, resp.ID, req.ID)
			}
			return resp
		}

		open := do(Request{Op: OpOpen, Path: "/e2e.dat"})
		if open.Status != StatusOK {
			t.Errorf("open: %v %s", open.Status, open.Err)
			return
		}
		fd := open.Value
		payload := []byte("interrupts end to end")
		if w := do(Request{Op: OpWrite, FD: fd, Data: payload}); w.Status != StatusOK ||
			int(w.Value) != len(payload) {
			t.Errorf("write: %+v", w)
		}
		if s := do(Request{Op: OpFsync, FD: fd}); s.Status != StatusOK {
			t.Errorf("fsync: %+v", s)
		}
		rd := do(Request{Op: OpRead, FD: fd, Off: 0, Len: uint32(len(payload))})
		if rd.Status != StatusOK || !bytes.Equal(rd.Data, payload) {
			t.Errorf("read back %q, want %q (status %v)", rd.Data, payload, rd.Status)
		}
		// Handles are per-connection capabilities: an fd this connection
		// never opened is rejected.
		if bad := do(Request{Op: OpRead, FD: 999, Len: 8}); bad.Status != StatusErr {
			t.Errorf("bad fd read: %+v, want StatusErr", bad)
		}
		// Opcodes past fsync (6 and 7 were a key-value get and put) are
		// unknown: the server counts the frame and sends no reply, so the
		// next reply answers the close.
		for _, op := range []Op{6, 7} {
			id++
			if err := ep.Send(env, "svc", (&Request{ID: id, Op: op, Path: "k1"}).Encode()); err != nil {
				t.Errorf("send op %d: %v", op, err)
			}
		}
		if cl := do(Request{Op: OpClose, FD: fd}); cl.Status != StatusOK {
			t.Errorf("close: %+v", cl)
		}
		// The handle died with the close.
		if cl := do(Request{Op: OpClose, FD: fd}); cl.Status != StatusErr {
			t.Errorf("double close: %+v, want StatusErr", cl)
		}
		finished = true
	})
	r.drive(t, func() bool { return finished })

	if err := r.srv.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	if got := r.srv.stats.BadRequests; got != 2 {
		t.Fatalf("BadRequests = %d, want 2 (opcodes 6 and 7)", got)
	}
	an := r.analyze(t)
	for _, v := range an.Violations {
		t.Errorf("violation: %+v", v)
	}
	if got := len(an.SvcChains); got != int(r.srv.stats.Received) {
		t.Fatalf("%d svc chains for %d received requests", got, r.srv.stats.Received)
	}
	for _, c := range an.SvcChains {
		if !c.Complete() {
			t.Fatalf("incomplete chain %+v", c)
		}
	}
}

func TestClientPipeliningDepth(t *testing.T) {
	r := newRig(t, 4, 2, Config{})
	c := NewClient(r.fab, "svc", ClientConfig{ID: 0, QD: 4, Ops: 32,
		ReadFrac: 0.5, Seed: 7})
	r.wire(c.EndpointName())
	r.m.Eng.Spawn("client", r.m.Eng.Core(3), func(env *sim.Env) {
		if err := c.Run(env); err != nil {
			t.Errorf("client: %v", err)
		}
	})
	r.drive(t, c.Done)

	if c.Result.Ops != 32 {
		t.Fatalf("completed %d ops, want 32", c.Result.Ops)
	}
	if depth := r.srv.ConnMaxOutstanding(c.Endpoint().ID()); depth < 2 {
		t.Fatalf("observed pipelining depth %d, want >= 2 at QD 4", depth)
	}
	if len(c.Result.Samples) != 32 {
		t.Fatalf("%d latency samples for 32 ops", len(c.Result.Samples))
	}
}

func TestUintrDeliveryAtServiceEdge(t *testing.T) {
	r := newRig(t, 3, 1, Config{})
	c := NewClient(r.fab, "svc", ClientConfig{ID: 0, QD: 2, Ops: 16,
		ReadFrac: 1.0, Seed: 3})
	r.wire(c.EndpointName())
	r.m.Eng.Spawn("client", r.m.Eng.Core(2), func(env *sim.Env) {
		if err := c.Run(env); err != nil {
			t.Errorf("client: %v", err)
		}
	})
	r.drive(t, c.Done)

	// Network arrivals were posted into the dispatcher's UPID and ran its
	// user-interrupt handler — the NVMe notification path, reused.
	if r.srv.UPID() == nil || r.srv.UPID().NotifySent.Load() == 0 {
		t.Fatal("no notification interrupts posted for network arrivals")
	}
	if r.srv.rx.HandlerRuns == 0 {
		t.Fatal("dispatcher's interrupt handler never ran")
	}
}

func TestAdmissionShedsAndClientsRecover(t *testing.T) {
	// Two tenants against a deliberately tiny budget: sheds must happen,
	// every client must still finish via backoff+retry, and the books must
	// balance exactly.
	r := newRig(t, 4, 2, Config{Admission: true, Tenants: []TenantConfig{
		{ID: 1, OpsPerSec: 4000, Burst: 2, MaxBacklog: 2, Weight: 2},
		{ID: 2, OpsPerSec: 4000, Burst: 2, MaxBacklog: 2, Weight: 1},
	}})
	var clients []*Client
	for i := 0; i < 4; i++ {
		c := NewClient(r.fab, "svc", ClientConfig{ID: i, Tenant: uint16(1 + i%2),
			QD: 2, Ops: 20, ReadFrac: 0.5, Seed: int64(100 + i)})
		r.wire(c.EndpointName())
		clients = append(clients, c)
		core := r.m.Eng.Core(3)
		cc := c
		r.m.Eng.Spawn(fmt.Sprintf("client-%d", i), core, func(env *sim.Env) {
			if err := cc.Run(env); err != nil {
				t.Errorf("client %d: %v", cc.cfg.ID, err)
			}
		})
	}
	r.drive(t, func() bool {
		for _, c := range clients {
			if !c.Done() {
				return false
			}
		}
		return true
	})

	var shed uint64
	for _, c := range clients {
		shed += c.Result.Shed
		if c.Result.Ops != 20 {
			t.Fatalf("client %d finished %d/20 ops", c.cfg.ID, c.Result.Ops)
		}
	}
	if shed == 0 {
		t.Fatal("no sheds under a deliberately undersized budget")
	}
	if r.srv.stats.Shed == 0 || r.srv.stats.Shed != shed {
		t.Fatalf("server shed %d, clients observed %d", r.srv.stats.Shed, shed)
	}
	if err := r.srv.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	an := r.analyze(t)
	for _, v := range an.Violations {
		t.Errorf("violation: %+v", v)
	}
	// Shed requests appear as recv→shed→reply chains, admitted ones as the
	// full four stages.
	var shedChains int
	for _, c := range an.SvcChains {
		if !c.Complete() {
			t.Fatalf("incomplete chain %+v", c)
		}
		if c.Shed {
			shedChains++
		}
	}
	if uint64(shedChains) != r.srv.stats.Shed {
		t.Fatalf("%d shed chains for %d sheds", shedChains, r.srv.stats.Shed)
	}
}

func TestServiceTraceStageLatencies(t *testing.T) {
	r := newRig(t, 4, 2, Config{})
	var clients []*Client
	for i := 0; i < 2; i++ {
		c := NewClient(r.fab, "svc", ClientConfig{ID: i, QD: 2, Ops: 12,
			ReadFrac: 0.5, Seed: int64(9 + i)})
		r.wire(c.EndpointName())
		clients = append(clients, c)
		cc := c
		r.m.Eng.Spawn(fmt.Sprintf("client-%d", i), r.m.Eng.Core(3), func(env *sim.Env) {
			if err := cc.Run(env); err != nil {
				t.Errorf("client %d: %v", cc.cfg.ID, err)
			}
		})
	}
	r.drive(t, func() bool { return clients[0].Done() && clients[1].Done() })

	an := r.analyze(t)
	if len(an.Violations) != 0 {
		t.Fatalf("violations: %+v", an.Violations)
	}
	hists := an.SvcStageHistograms()
	for _, stage := range []string{trace.SvcStageRecvToAdmit, trace.SvcStageAdmitToFSOp,
		trace.SvcStageFSOpToReply, trace.SvcStageEndToEnd} {
		h := hists[stage]
		if h == nil || h.Count() == 0 {
			t.Fatalf("stage %q has no samples", stage)
		}
	}
	// End-to-end dominates any single stage.
	if hists[trace.SvcStageEndToEnd].Percentile(50) < hists[trace.SvcStageAdmitToFSOp].Percentile(50) {
		t.Fatal("end-to-end p50 below a component stage's p50")
	}
}
