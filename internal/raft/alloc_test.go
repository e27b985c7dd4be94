package raft

import (
	"testing"

	"aeolia/internal/alloctest"
)

// TestAllocsReplicate: in steady state a replicated entry costs raft no
// allocation beyond the proposer's entry data — the outbox is
// double-buffered, MsgApp entries are views of the leader's log, and
// committed entries come back in the node's own buffer. Three nodes, the
// messages handed over directly; each log is pre-sized, so what is counted
// is the protocol and not the log's amortized growth.
func TestAllocsReplicate(t *testing.T) {
	peers := []int{0, 1, 2}
	nodes := make([]*Node, len(peers))
	for i := range nodes {
		lg := NewLog()
		lg.entries = make([]Entry, 0, 1<<12)
		nodes[i] = New(Config{ID: i, Peers: peers, Seed: 1}, HardState{Vote: None}, lg)
	}
	applied := 0
	pump := func() {
		for moved := true; moved; {
			moved = false
			for _, n := range nodes {
				for _, m := range n.Messages() {
					nodes[m.To].Step(m)
					moved = true
				}
				applied += len(n.CommittedEntries())
			}
		}
	}
	var lead *Node
	for tick := 0; tick < 200 && lead == nil; tick++ {
		for _, n := range nodes {
			n.Tick()
			if n.State() == Leader {
				lead = n
			}
		}
		pump()
	}
	if lead == nil {
		t.Fatal("no leader elected")
	}
	data := make([]byte, 4096)
	for i := 0; i < 4; i++ { // every buffer reaches its steady size
		lead.Propose(data)
		pump()
	}
	before := applied
	alloctest.AtMost(t, 0, 1, func() {
		lead.Propose(data)
		pump()
	})
	if per := applied - before; per%len(nodes) != 0 || per == 0 {
		t.Fatalf("%d entries applied across the measured proposals; every proposal must apply on all %d nodes", per, len(nodes))
	}
}
