package cluster

import (
	"strings"
	"testing"
	"time"

	"aeolia/internal/netsim"
)

// TestBandwidthLimitedRF3 runs 4 KiB replicated writes over 10 Gb/s links.
// A leader that re-sends unacknowledged entries on every proposal overflows
// its link queues there, followers lag, elections storm and acknowledged
// writes go missing; with each entry sent once the links never fill.
func TestBandwidthLimitedRF3(t *testing.T) {
	cfg := Config{Nodes: 5, PGs: 8, RF: 3, Clients: 8, OpsPerClient: 1500,
		WritePct: 70, PayloadBytes: 4096, Seed: 1,
		Link: netsim.Config{Latency: 5 * time.Microsecond, BytesPerSec: 1.25e9}}
	c, _, s := laneRun(t, cfg)
	if s.TxOverflows != 0 {
		t.Errorf("%d link overflows, want 0", s.TxOverflows)
	}
	if s.Timeouts != 0 {
		t.Errorf("%d client timeouts, want 0", s.Timeouts)
	}
	if s.Elections != uint64(cfg.PGs) {
		t.Errorf("%d elections, want one per group (%d)", s.Elections, cfg.PGs)
	}
	if errs := c.VerifyAcks(); len(errs) != 0 {
		t.Errorf("%d lost-write audit failures, first: %v", len(errs), errs[0])
	}
	if want := uint64(cfg.Clients * cfg.OpsPerClient); s.AckedWrites+s.Reads != want {
		t.Errorf("%d ops completed, want %d", s.AckedWrites+s.Reads, want)
	}
}

// TestClientDeadlineCancelled pins the client's timeout timer: every attempt
// disarms its own on return, so after a run without timeouts no timer is
// left armed and no client ever woke without a frame to read.
func TestClientDeadlineCancelled(t *testing.T) {
	cfg := Config{Nodes: 3, PGs: 2, RF: 3, Clients: 3, OpsPerClient: 200, Seed: 4,
		Link: netsim.Config{Latency: 5 * time.Microsecond}}
	c, _, s := laneRun(t, cfg)
	if s.Timeouts != 0 {
		t.Fatalf("%d timeouts in a clean run; the test needs none", s.Timeouts)
	}
	for _, cl := range c.Clients() {
		if cl.deadline.Armed() {
			t.Errorf("client %d left its deadline timer armed for %v", cl.id, cl.deadline.At())
		}
		if cl.idleWakes != 0 {
			t.Errorf("client %d woke %d time(s) with nothing delivered", cl.id, cl.idleWakes)
		}
	}
}

// TestPayloadBytesLimit pins the 16-bit length fields: the largest block
// whose command fits a raft entry is stored whole on every replica, and a
// larger one is refused at assembly instead of being truncated, stored and
// acknowledged.
func TestPayloadBytesLimit(t *testing.T) {
	base := Config{Nodes: 3, PGs: 1, RF: 3, Clients: 1, OpsPerClient: 6, WritePct: 100, Seed: 2}

	ok := base
	ok.PayloadBytes = 65000
	c, acks, _ := laneRun(t, ok)
	if len(acks) != ok.OpsPerClient {
		t.Fatalf("%d writes acknowledged, want %d", len(acks), ok.OpsPerClient)
	}
	for _, e := range c.VerifyAcks() {
		t.Errorf("lost-write audit: %v", e)
	}
	for _, a := range acks {
		for _, id := range c.Members(a.PG) {
			if got := len(c.Node(id).groups[a.PG].store[a.LBA].data); got != ok.PayloadBytes {
				t.Errorf("node %d stores %d bytes at lba %d, want %d", id, got, a.LBA, ok.PayloadBytes)
			}
		}
	}

	for _, size := range []int{65536, 70000} {
		bad := base
		bad.PayloadBytes = size
		if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "PayloadBytes") {
			t.Errorf("New accepted PayloadBytes %d (err %v)", size, err)
		}
	}
}

// TestOversizeCommandRefused sends blocks that fit a request frame but not,
// with the command header, a raft entry: the leader must answer StatusErr
// and propose nothing, and an encoder handed such a length must refuse it.
func TestOversizeCommandRefused(t *testing.T) {
	c, err := New(Config{Nodes: 3, PGs: 1, RF: 3, Clients: 1, OpsPerClient: 1, WritePct: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.cfg.PayloadBytes = maxField - 4 // past New's check, as a foreign client could
	c.Start()
	c.Run(20 * time.Millisecond)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("run ended with %v, want the horizon: the write can never succeed", err)
	}
	s := c.Stats()
	if s.AckedWrites != 0 || s.Retries == 0 {
		t.Fatalf("acked %d, retries %d; want the oversize write refused and retried", s.AckedWrites, s.Retries)
	}
	for _, n := range c.nodes {
		if got := len(n.groups[0].store); got != 0 {
			t.Errorf("node %d stored %d block(s) of an oversize write", n.id, got)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("encoding a 65536-byte block wrapped its length instead of refusing")
		}
	}()
	request{Op: OpWrite, Data: make([]byte, maxField+1)}.encode(nil)
}
