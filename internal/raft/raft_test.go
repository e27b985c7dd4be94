package raft

import (
	"fmt"
	"testing"
)

// harness is a deterministic in-memory cluster: per-link FIFO queues, no
// loss unless a test drops explicitly.
type harness struct {
	t     *testing.T
	nodes map[int]*Node
	ids   []int
	// queues[src][dst] in FIFO order.
	queues map[int]map[int][]Message
	// down nodes neither send nor receive.
	down map[int]bool
	// applied log per node (data of applied entries, in order).
	applied map[int][]string
	// sent records every message a live node emitted, in emission order.
	sent []Message
	// filter, when set, decides what becomes of each emitted message: the
	// returned messages are queued in its place (none drops it, two
	// duplicate it).
	filter func(Message) []Message
}

func newHarness(t *testing.T, n int) *harness {
	h := &harness{t: t, nodes: map[int]*Node{}, queues: map[int]map[int][]Message{},
		down: map[int]bool{}, applied: map[int][]string{}}
	peers := make([]int, n)
	for i := range peers {
		peers[i] = i
	}
	for i := 0; i < n; i++ {
		h.ids = append(h.ids, i)
		h.nodes[i] = New(Config{ID: i, Peers: peers, Seed: 99}, HardState{Vote: None}, NewLog())
		h.queues[i] = map[int][]Message{}
	}
	return h
}

// pump drains outboxes into queues and delivers everything until quiet.
func (h *harness) pump() {
	for rounds := 0; rounds < 10000; rounds++ {
		moved := false
		for _, id := range h.ids {
			if h.down[id] {
				h.nodes[id].Messages() // drop a down node's output
				continue
			}
			for _, m := range h.nodes[id].Messages() {
				h.sent = append(h.sent, m)
				out := []Message{m}
				if h.filter != nil {
					out = h.filter(m)
				}
				h.queues[id][m.To] = append(h.queues[id][m.To], out...)
				moved = true
			}
		}
		for _, src := range h.ids {
			for _, dst := range h.ids {
				q := h.queues[src][dst]
				if len(q) == 0 {
					continue
				}
				h.queues[src][dst] = nil
				if h.down[src] || h.down[dst] {
					continue
				}
				for _, m := range q {
					h.nodes[dst].Step(m)
				}
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	for _, id := range h.ids {
		for _, ie := range h.nodes[id].CommittedEntries() {
			h.applied[id] = append(h.applied[id], string(ie.Entry.Data))
		}
	}
}

// tickAll ticks every live node once and pumps.
func (h *harness) tickAll() {
	for _, id := range h.ids {
		if !h.down[id] {
			h.nodes[id].Tick()
		}
	}
	h.pump()
}

// heartbeat runs the cluster until followers have the leader's commit index:
// it rides on the next heartbeat, and the heartbeat tick that follows an
// append skips the peer, so that is two heartbeat intervals at most.
func (h *harness) heartbeat() {
	for i := 0; i < 2*(Config{}).heartbeatTicks(); i++ {
		h.tickAll()
	}
}

// electLeader ticks until exactly one live leader exists, returning it.
func (h *harness) electLeader() *Node {
	for i := 0; i < 2000; i++ {
		h.tickAll()
		var lead *Node
		leaders := 0
		for _, id := range h.ids {
			if !h.down[id] && h.nodes[id].State() == Leader {
				leaders++
				lead = h.nodes[id]
			}
		}
		if leaders == 1 {
			return lead
		}
	}
	h.t.Fatal("no single leader elected within 2000 ticks")
	return nil
}

func TestSingleNodeCommits(t *testing.T) {
	h := newHarness(t, 1)
	lead := h.electLeader()
	idx, term, ok := lead.Propose([]byte("a"))
	if !ok {
		t.Fatal("single-node leader refused proposal")
	}
	if term != lead.Term() {
		t.Fatalf("proposal term %d != node term %d", term, lead.Term())
	}
	h.pump()
	if lead.Commit() < idx {
		t.Fatalf("commit %d below proposed index %d", lead.Commit(), idx)
	}
	if got := h.applied[0]; len(got) == 0 || got[len(got)-1] != "a" {
		t.Fatalf("applied %q, want trailing \"a\"", got)
	}
}

func TestThreeNodeReplication(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.electLeader()
	for i := 0; i < 5; i++ {
		if _, _, ok := lead.Propose([]byte(fmt.Sprintf("e%d", i))); !ok {
			t.Fatal("leader refused proposal")
		}
		h.pump()
	}
	h.heartbeat()
	want := fmt.Sprint(h.applied[lead.ID()])
	for _, id := range h.ids {
		if h.nodes[id].Commit() != lead.Commit() {
			t.Fatalf("node %d commit %d != leader commit %d", id, h.nodes[id].Commit(), lead.Commit())
		}
		if got := fmt.Sprint(h.applied[id]); got != want {
			t.Fatalf("node %d applied %s, leader applied %s", id, got, want)
		}
	}
}

func TestLeaderFailoverPreservesCommitted(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.electLeader()
	idx, _, _ := lead.Propose([]byte("durable"))
	h.pump()
	if lead.Commit() < idx {
		t.Fatalf("entry %d not committed before failover", idx)
	}
	h.down[lead.ID()] = true
	next := h.electLeader()
	if next.ID() == lead.ID() {
		t.Fatal("down leader re-elected")
	}
	if next.Term() <= lead.Term() {
		t.Fatalf("new leader term %d not above old term %d", next.Term(), lead.Term())
	}
	// The committed entry must survive on the new leader.
	e, ok := next.Log().Entry(idx)
	if !ok || string(e.Data) != "durable" {
		t.Fatalf("committed entry lost after failover: %v %q", ok, e.Data)
	}
	// And new proposals still commit with one node down.
	idx2, _, ok := next.Propose([]byte("after"))
	if !ok {
		t.Fatal("new leader refused proposal")
	}
	h.pump()
	if next.Commit() < idx2 {
		t.Fatalf("post-failover entry %d not committed (commit %d)", idx2, next.Commit())
	}
}

func TestStaleLeaderStepsDown(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.electLeader()
	h.down[lead.ID()] = true
	next := h.electLeader()
	// Heal: the old leader hears the new term through its own heartbeat's
	// rejection (or the new leader's append).
	h.down[lead.ID()] = false
	for i := 0; i < 200 && lead.State() == Leader; i++ {
		h.tickAll()
	}
	if lead.State() == Leader {
		t.Fatal("stale leader did not step down after heal")
	}
	if lead.Term() < next.Term() {
		t.Fatalf("old leader term %d below cluster term %d", lead.Term(), next.Term())
	}
}

func TestRestartRejoinsFromStableState(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.electLeader()
	lead.Propose([]byte("x"))
	h.pump()
	victim := (lead.ID() + 1) % 3
	// Crash: preserve hard state + log (stable storage), rebuild node.
	hs, lg := h.nodes[victim].HardState(), h.nodes[victim].Log()
	h.nodes[victim] = New(h.nodes[victim].cfg, hs, lg)
	h.applied[victim] = nil
	h.pump()
	idx2, _, ok := lead.Propose([]byte("y"))
	if !ok {
		t.Fatal("leader lost leadership over a follower restart")
	}
	h.pump()
	h.heartbeat()
	if h.nodes[victim].Commit() < idx2 {
		t.Fatalf("restarted follower commit %d below %d", h.nodes[victim].Commit(), idx2)
	}
	got := h.applied[victim]
	if len(got) == 0 || got[len(got)-1] != "y" {
		t.Fatalf("restarted follower applied %q, want trailing \"y\"", got)
	}
}

func TestCompactionKeepsClusterLive(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.electLeader()
	for i := 0; i < 20; i++ {
		lead.Propose([]byte(fmt.Sprintf("c%d", i)))
		h.pump()
	}
	if to := lead.MaybeCompact(2); to == 0 {
		t.Fatal("leader did not compact a fully replicated prefix")
	}
	if lead.Log().FirstIndex() <= 1 {
		t.Fatal("compaction did not advance the log offset")
	}
	// Followers compact when the boundary arrives with the next appends.
	lead.Propose([]byte("post-compact"))
	h.pump()
	h.heartbeat()
	for _, id := range h.ids {
		n := h.nodes[id]
		if n.Log().FirstIndex() == 1 {
			t.Fatalf("node %d never compacted (first index 1)", id)
		}
		if got := h.applied[id][len(h.applied[id])-1]; got != "post-compact" {
			t.Fatalf("node %d applied %q after compaction, want post-compact", id, got)
		}
	}
}

func TestProposeOnFollowerRefused(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.electLeader()
	for _, id := range h.ids {
		if id == lead.ID() {
			continue
		}
		if _, _, ok := h.nodes[id].Propose([]byte("nope")); ok {
			t.Fatalf("follower %d accepted a proposal", id)
		}
	}
}
