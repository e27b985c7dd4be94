package cluster

import (
	"testing"
	"time"

	"aeolia/internal/faultinject"
	"aeolia/internal/netsim"
	"aeolia/internal/raft"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

// Interrupt mitigation on the OSD's receive port (internal/rxport). The
// failover matrix and the repeated-leader-crash test are the safety net;
// these pin what the port changed for a node.

var maskLink = netsim.Config{Latency: 5 * time.Microsecond}

// TestWakeMasksBurst: an idle OSD is blocked on its inbox when two
// AppendEntries replies land 100 ns apart. The first takes the kernel path,
// pushes the resume-time handler frame and wakes the node; the kernel masks
// on its behalf, so the second — arriving while the node is still being
// switched in — costs nothing. (Unmasked, it took a second kernel interrupt
// and pushed a second handler frame.)
func TestWakeMasksBurst(t *testing.T) {
	c, err := New(Config{Nodes: 3, PGs: 1, RF: 3, Clients: 1, Seed: 1, Link: maskLink})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng := c.M.Eng
	t.Cleanup(eng.Shutdown)
	// Only osd0 runs; its two peers are raw endpoints driven from their
	// (otherwise idle) cores.
	n := c.Node(0)
	eng.Spawn(osdName(0), eng.Core(0), n.run)
	for peer, at := range map[int]time.Duration{
		1: 50 * time.Microsecond,
		2: 50*time.Microsecond + 100*time.Nanosecond,
	} {
		ep := c.Fab.Endpoint(osdName(peer))
		frame := raftFrame{PG: 0, Msg: raft.Message{Type: raft.MsgAppResp, From: peer, To: 0}}.encode(nil)
		eng.Spawn("tx", eng.Core(peer), func(env *sim.Env) {
			env.Sleep(at)
			if err := ep.Send(env, osdName(0), frame); err != nil {
				t.Errorf("send from osd%d: %v", peer, err)
			}
		})
	}
	eng.Run(90 * time.Microsecond) // before the first raft tick
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if n.RaftMsgs != 2 {
		t.Fatalf("node handled %d raft frames, want 2", n.RaftMsgs)
	}
	if kd, hr := n.rx.KernelDeliveries, n.rx.HandlerRuns; kd != 1 || hr != 1 {
		t.Fatalf("%d kernel deliveries and %d handler frames for two frames inside one wake, want 1 and 1", kd, hr)
	}
	if n.rx.BlockedWaits == 0 || n.rx.ActiveChecks != 0 {
		t.Fatalf("%d blocking waits, %d active checks: an OSD always blocks",
			n.rx.BlockedWaits, n.rx.ActiveChecks)
	}
	if n.rx.UPID().SN {
		t.Fatal("node back in its wait is still masked")
	}
}

// TestCrashMidDrainRestartsUnmasked: a leader crashes at pre-append — inside
// handle(), so with its port masked. CrashAndReset closes the endpoint and
// empties the inbox; the node's loop must fall through Recv's unmask into the
// wait, and after restart the first frame must raise its notification: a
// probe sent into the quiet window before the client's retry is answered
// within one link latency each way plus one kernel-path wake, not at the
// next raft tick. The workload then finishes with a clean audit.
func TestCrashMidDrainRestartsUnmasked(t *testing.T) {
	p := faultinject.NewPlan(7)
	cfg := Config{Nodes: 3, PGs: 1, RF: 1, Clients: 1, OpsPerClient: 20, Seed: 7, Plan: p,
		Link: maskLink, RestartDelay: time.Millisecond, ClientTimeout: 5 * time.Millisecond}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng := c.M.Eng
	t.Cleanup(eng.Shutdown)
	tr := trace.New(cfg.Nodes+1+cfg.Clients, 1<<16)
	eng.Tracer = tr
	c.Fab.Connect("probe", osdName(0), maskLink)
	c.Fab.Connect(osdName(0), "probe", maskLink)
	c.Start()
	if leader := warmLeader(t, c); leader != 0 {
		t.Fatalf("leader of the single-replica group is osd%d, want osd0", leader)
	}
	n := c.Node(0)
	CrashAndReset(p, PointPreAppend, 0)
	step := func(what string, done func() bool) {
		t.Helper()
		for i := 0; i < 1000 && !done(); i++ {
			eng.Run(eng.Now() + 10*time.Microsecond)
		}
		if !done() {
			t.Fatalf("%s: not within 10 ms", what)
		}
	}
	step("crash", n.Down)
	if n.rx.UPID().SN || n.ep.Pending() != 0 {
		t.Fatalf("crashed node sits with SN=%v and %d frames queued; it must fall through to an unmasked wait",
			n.rx.UPID().SN, n.ep.Pending())
	}
	step("restart", func() bool { return !n.Down() })

	// Ticks fire every 100 us from the node's bind at ~0: send at +40 us so
	// the whole exchange sits between two of them.
	const tick = 100 * time.Microsecond
	at := (eng.Now()/tick+1)*tick + 40*time.Microsecond
	var rtt time.Duration
	probe := c.Fab.Endpoint("probe")
	eng.Spawn("probe", eng.Core(cfg.Nodes), func(env *sim.Env) {
		env.Sleep(at - env.Now())
		t0 := env.Now()
		req := request{Op: OpRead, ID: 1, PG: 0, LBA: 1, Reply: []byte("probe")}
		if err := probe.Send(env, osdName(0), req.encode(nil)); err != nil {
			t.Errorf("probe: %v", err)
			return
		}
		rtt = probe.Recv(env).DeliveredAt - t0
	})
	before := n.rx.KernelDeliveries
	step("probe reply", func() bool { return rtt != 0 })
	// TxCost + latency, kernel interrupt + ttwu + idle exit + context switch
	// + handler frame, RxCost + TxCost, latency: 13.35 us.
	if rtt > 14*time.Microsecond {
		t.Fatalf("first frame after restart answered in %v; one link latency each way plus a wake is under 14us", rtt)
	}
	if got := n.rx.KernelDeliveries - before; got != 1 {
		t.Fatalf("first frame after restart took %d kernel deliveries, want 1", got)
	}

	c.Run(2 * time.Second)
	if err := c.Err(); err != nil {
		t.Fatalf("cluster did not recover: %v", err)
	}
	if d := tr.Dropped(); d > 0 {
		t.Fatalf("trace ring dropped %d events", d)
	}
	checkClean(t, c, trace.Analyze(tr.Events()))
	if s := c.Stats(); s.Crashes != 1 || s.AckedWrites == 0 {
		t.Fatalf("%d crashes, %d acked writes; want 1 crash and the workload finished", s.Crashes, s.AckedWrites)
	}
}
