package cluster

import (
	"strings"
	"testing"
	"time"

	"aeolia/internal/netsim"
)

// laneRun drives one cluster to completion and returns its acks and stats.
func laneRun(t *testing.T, cfg Config) (*Cluster, []Ack, Stats) {
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

// TestParallelLanesMatchSerial is the cluster-level determinism contract for
// conservative parallel execution: the same seeded configuration run serially
// and with ParallelLanes must produce identical ack sequences and stats.
func TestParallelLanesMatchSerial(t *testing.T) {
	base := Config{Nodes: 5, PGs: 4, RF: 3, Clients: 4, OpsPerClient: 20, Seed: 77,
		Link: netsim.Config{Latency: 5 * time.Microsecond}}

	serial := base
	c1, a1, s1 := laneRun(t, serial)
	if w := c1.M.Eng.Stats().Windows; w != 0 {
		t.Fatalf("serial run executed %d parallel windows", w)
	}

	par := base
	par.ParallelLanes = true
	c2, a2, s2 := laneRun(t, par)
	if w := c2.M.Eng.Stats().Windows; w == 0 {
		t.Fatal("ParallelLanes run executed zero parallel windows; test is vacuous")
	}
	t.Logf("parallel stats: %+v", c2.M.Eng.Stats())

	if s1 != s2 {
		t.Fatalf("stats diverge:\nserial:   %+v\nparallel: %+v", s1, s2)
	}
	if len(a1) != len(a2) {
		t.Fatalf("ack counts diverge: serial %d vs parallel %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("ack %d diverges:\nserial:   %+v\nparallel: %+v", i, a1[i], a2[i])
		}
	}
	for _, e := range c2.VerifyAcks() {
		t.Errorf("lost-write audit (parallel): %v", e)
	}
}

// TestParallelLanesJitter repeats the parity check with per-message jitter
// enabled: jitter draws are per-link (site ⊕ per-link sequence), so they must
// not depend on cross-lane interleaving.
func TestParallelLanesJitter(t *testing.T) {
	base := Config{Nodes: 3, PGs: 2, RF: 3, Clients: 3, OpsPerClient: 15, Seed: 13,
		Link: netsim.Config{Latency: 8 * time.Microsecond, Jitter: 3 * time.Microsecond}}

	_, a1, s1 := laneRun(t, base)
	par := base
	par.ParallelLanes = true
	c2, a2, s2 := laneRun(t, par)
	if w := c2.M.Eng.Stats().Windows; w == 0 {
		t.Fatal("ParallelLanes run executed zero parallel windows")
	}
	if s1 != s2 {
		t.Fatalf("stats diverge:\nserial:   %+v\nparallel: %+v", s1, s2)
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
	c, acks, _ := laneRun(t, cfg)
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
