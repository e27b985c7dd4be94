package cluster

import (
	"strings"
	"testing"
	"time"

	"aeolia/internal/faultinject"
	"aeolia/internal/netsim"
	"aeolia/internal/trace"
)

// runCluster assembles, traces, and drives a cluster to completion,
// returning it with its analyzed trace report.
func runCluster(t *testing.T, cfg Config) (*Cluster, *trace.Analyzer) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tr := trace.New(cfg.Nodes+1+cfg.Clients, 1<<18)
	c.M.Eng.Tracer = tr
	c.Start()
	c.Run(2 * time.Second)
	if err := c.Err(); err != nil {
		t.Fatalf("cluster failed: %v", err)
	}
	if d := tr.Dropped(); d > 0 {
		t.Fatalf("trace ring dropped %d events; grow perRing", d)
	}
	rep := trace.Analyze(tr.Events())
	return c, rep
}

// runUntraced drives one cluster to completion, without a tracer, and
// returns it with its acks and stats.
func runUntraced(t *testing.T, cfg Config) (*Cluster, []Ack, Stats) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()
	c.Run(2 * time.Second)
	if err := c.Err(); err != nil {
		t.Fatalf("cluster failed: %v", err)
	}
	return c, c.Acks(), c.Stats()
}

func checkClean(t *testing.T, c *Cluster, rep *trace.Analyzer) {
	t.Helper()
	for _, v := range rep.Violations {
		t.Errorf("trace violation: %s", v)
	}
	for _, e := range c.VerifyAcks() {
		t.Errorf("lost-write audit: %v", e)
	}
}

func TestReplicatedWritesCommitRF3(t *testing.T) {
	cfg := Config{Nodes: 3, PGs: 2, RF: 3, Clients: 2, OpsPerClient: 25, Seed: 1}
	c, rep := runCluster(t, cfg)
	checkClean(t, c, rep)
	s := c.Stats()
	if s.AckedWrites == 0 {
		t.Fatal("no writes acknowledged")
	}
	if s.Reads == 0 {
		t.Fatal("no reads served")
	}
	if s.RaftMsgs == 0 {
		t.Fatal("no raft traffic")
	}
	t.Logf("stats: %+v", s)
}

func TestSingleReplicaDegenerate(t *testing.T) {
	cfg := Config{Nodes: 2, PGs: 2, RF: 1, Clients: 1, OpsPerClient: 20, Seed: 7}
	c, rep := runCluster(t, cfg)
	checkClean(t, c, rep)
	if s := c.Stats(); s.AckedWrites == 0 {
		t.Fatal("no writes acknowledged")
	}
}

func TestFiveNodeFiveGroups(t *testing.T) {
	cfg := Config{Nodes: 5, PGs: 5, RF: 3, Clients: 3, OpsPerClient: 15, Seed: 3}
	c, rep := runCluster(t, cfg)
	checkClean(t, c, rep)
	s := c.Stats()
	want := uint64(0)
	for _, cl := range c.Clients() {
		for _, a := range cl.Acks() {
			_ = a
			want++
		}
	}
	if s.AckedWrites != want {
		t.Fatalf("stats acks %d != collected %d", s.AckedWrites, want)
	}
}

// TestLossAndDuplicationTolerated exercises the replicated path under seeded
// frame loss and duplication on inter-osd links: raft retransmission and
// client retry must still finish the workload with zero lost acked writes.
func TestLossAndDuplicationTolerated(t *testing.T) {
	p := faultinject.NewPlan(11)
	for _, lnk := range []string{"osd0->osd1", "osd1->osd2", "osd2->osd0"} {
		p.On("net:drop:"+lnk, faultinject.WithProb(0.05, 500))
		p.On("net:dup:"+lnk, faultinject.WithProb(0.05, 500))
	}
	cfg := Config{Nodes: 3, PGs: 2, RF: 3, Clients: 2, OpsPerClient: 20, Seed: 5, Plan: p}
	c, rep := runCluster(t, cfg)
	checkClean(t, c, rep)
	if s := c.Stats(); s.AckedWrites == 0 {
		t.Fatal("no writes acknowledged under loss")
	}
}

// TestCompactionUnderLoad keeps leaders compacting aggressively while the
// workload runs; stragglers must be served from the boundary without
// snapshots and the lost-write audit must stay clean.
func TestCompactionUnderLoad(t *testing.T) {
	cfg := Config{Nodes: 3, PGs: 1, RF: 3, Clients: 2, OpsPerClient: 40, Seed: 9,
		CompactEvery: 8}
	c, rep := runCluster(t, cfg)
	checkClean(t, c, rep)
	if s := c.Stats(); s.Compactions == 0 {
		t.Fatal("no compactions under CompactEvery=8")
	}
}

// TestDeterministicReplay runs the identical seeded configuration twice and
// requires identical ack sequences and stats — the whole cluster, elections
// included, must replay byte-identically.
func TestDeterministicReplay(t *testing.T) {
	run := func() ([]Ack, Stats) {
		cfg := Config{Nodes: 3, PGs: 2, RF: 3, Clients: 2, OpsPerClient: 15, Seed: 42}
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		c.Start()
		c.Run(2 * time.Second)
		if err := c.Err(); err != nil {
			t.Fatalf("cluster failed: %v", err)
		}
		return c.Acks(), c.Stats()
	}
	a1, s1 := run()
	a2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverge:\n%+v\n%+v", s1, s2)
	}
	if len(a1) != len(a2) {
		t.Fatalf("ack counts diverge: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("ack %d diverges: %+v vs %+v", i, a1[i], a2[i])
		}
	}
}

// TestMeshHasNoClientLinks checks the fabric wiring: clients never talk to
// each other, so no client↔client link exists, every other ordered endpoint
// pair has one, and a run over that mesh completes with every ack audited.
func TestMeshHasNoClientLinks(t *testing.T) {
	cfg := Config{Nodes: 3, PGs: 2, RF: 3, Clients: 3, OpsPerClient: 15, Seed: 21,
		Link: netsim.Config{Latency: 5 * time.Microsecond}}
	c, acks, _ := runUntraced(t, cfg)
	for _, l := range c.Fab.Links() {
		if strings.Count(l.Name(), "client") == 2 {
			t.Errorf("client↔client link %s wired", l.Name())
		}
	}
	endpoints := 1 + cfg.Nodes + cfg.Clients
	if want := endpoints*(endpoints-1) - cfg.Clients*(cfg.Clients-1); len(c.Fab.Links()) != want {
		t.Errorf("%d links wired, want %d", len(c.Fab.Links()), want)
	}
	if len(acks) == 0 {
		t.Error("no write was acknowledged over the mesh")
	}
	for _, e := range c.VerifyAcks() {
		t.Errorf("lost-write audit: %v", e)
	}
}
