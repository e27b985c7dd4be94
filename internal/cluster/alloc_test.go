package cluster

import (
	"testing"
	"time"

	"aeolia/internal/alloctest"
	"aeolia/internal/netsim"
)

// TestAllocsReplicatedOps: a replicated op costs a handful of allocations —
// the proposer's command entry, one frame per follower that the follower
// keeps as its copy of the block, and the amortized growth of logs, audit
// maps and latency records. Five nodes, RF 3, 4 KiB blocks, 70 % writes:
// 2 000 ops counted after every group has its leader.
func TestAllocsReplicatedOps(t *testing.T) {
	c, err := New(Config{Nodes: 5, PGs: 8, RF: 3, Clients: 8, OpsPerClient: 400,
		WritePct: 70, PayloadBytes: 4096, Seed: 3,
		Link: netsim.Config{Latency: 5 * time.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	eng := c.M.Eng
	t.Cleanup(eng.Shutdown)
	c.Start()
	completed := func() (n int) {
		for _, cl := range c.clients {
			n += len(cl.WriteLat) + len(cl.ReadLat)
		}
		return n
	}
	ops := func(n int) func() {
		return func() {
			target := completed() + n
			for i := 0; completed() < target; i++ {
				if i > 100_000 || c.Err() != nil {
					t.Fatalf("stuck at %d of %d ops: %v", completed(), target, c.Err())
				}
				eng.Run(eng.Now() + 10*time.Microsecond)
			}
		}
	}
	ops(400)()
	alloctest.AtMost(t, 10, 100, ops(100))
	if s := c.Stats(); s.Timeouts != 0 {
		t.Fatalf("%d client timeouts: the gate measured retries, not the steady state", s.Timeouts)
	}
}
