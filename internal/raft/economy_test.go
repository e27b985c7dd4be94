package raft

import (
	"fmt"
	"testing"
)

// checkProgress asserts the leader-side invariants of every progress record:
// next stays above match, and no more than maxBatch entries are in flight.
func checkProgress(t *testing.T, lead *Node) {
	t.Helper()
	for _, pr := range lead.prs {
		if pr.id == lead.cfg.ID {
			continue // the leader's own record only carries match
		}
		if pr.next < pr.match+1 {
			t.Fatalf("peer %d: next %d fell below match+1 = %d", pr.id, pr.next, pr.match+1)
		}
		base := max(pr.match, pr.probe)
		if pr.next-1 > base+uint64(maxBatch) {
			t.Fatalf("peer %d: %d entries in flight, window is %d", pr.id, pr.next-1-base, maxBatch)
		}
	}
}

// converged reports whether every live node stores the leader's log.
func (h *harness) converged(lead *Node) error {
	for _, id := range h.ids {
		n := h.nodes[id]
		if h.down[id] || n == lead {
			continue
		}
		if n.Log().LastIndex() != lead.Log().LastIndex() {
			return fmt.Errorf("node %d last index %d, leader %d", id, n.Log().LastIndex(), lead.Log().LastIndex())
		}
		for i := lead.Log().FirstIndex(); i <= lead.Log().LastIndex(); i++ {
			a, _ := lead.Log().Term(i)
			if b, ok := n.Log().Term(i); ok && a != b {
				return fmt.Errorf("node %d term %d at index %d, leader %d", id, b, i, a)
			}
		}
		if m := lead.progress(id).match; m != lead.Log().LastIndex() {
			return fmt.Errorf("leader match for node %d is %d, last index %d", id, m, lead.Log().LastIndex())
		}
	}
	return nil
}

// TestEachEntrySentOnce pins the message economy on a lossless fabric: a
// burst of proposals between two pumps, then sequential ones, put every
// entry in exactly one MsgApp per follower, and the whole exchange costs
// one append and one acknowledgement per (entry, follower) plus heartbeats.
func TestEachEntrySentOnce(t *testing.T) {
	for _, size := range []int{3, 5} {
		t.Run(fmt.Sprintf("n=%d", size), func(t *testing.T) {
			h := newHarness(t, size)
			lead := h.electLeader()
			h.heartbeat()
			h.sent = nil
			beats := lead.Heartbeats
			first := lead.Log().LastIndex() + 1

			const burst, sequential = 10, 20
			for i := 0; i < burst; i++ {
				lead.Propose([]byte(fmt.Sprintf("b%d", i)))
			}
			h.pump()
			for i := 0; i < sequential; i++ {
				lead.Propose([]byte(fmt.Sprintf("s%d", i)))
				h.pump()
				if i%5 == 4 {
					h.tickAll()
				}
			}
			h.heartbeat()
			if err := h.converged(lead); err != nil {
				t.Fatal(err)
			}

			type slot struct {
				to    int
				index uint64
			}
			copies := map[slot]int{}
			for _, m := range h.sent {
				if m.Type != MsgApp {
					continue
				}
				for i := range m.Entries {
					copies[slot{m.To, m.Index + 1 + uint64(i)}]++
				}
			}
			last := lead.Log().LastIndex()
			if got := int(last - first + 1); got != burst+sequential {
				t.Fatalf("%d entries appended, want %d", got, burst+sequential)
			}
			for _, id := range h.ids {
				if id == lead.ID() {
					continue
				}
				for idx := first; idx <= last; idx++ {
					if c := copies[slot{id, idx}]; c != 1 {
						t.Errorf("entry %d went to node %d in %d MsgApps, want 1", idx, id, c)
					}
				}
			}
			// Every heartbeat broadcast may add one empty append and its
			// reply per follower.
			followers := size - 1
			bound := 2*followers*(burst+sequential) + 2*followers*int(lead.Heartbeats-beats)
			if len(h.sent) > bound {
				t.Errorf("%d messages for %d entries and %d heartbeat ticks, bound %d",
					len(h.sent), burst+sequential, lead.Heartbeats-beats, bound)
			}
			for _, id := range h.ids {
				if c := h.nodes[id].Commit(); c != lead.Commit() {
					t.Errorf("node %d commit %d, leader %d", id, c, lead.Commit())
				}
			}
		})
	}
}

// TestRewindAfterLoss loses, in turn, an optimistic append, its reply, and
// then replays a rejection the leader already acted on. Each time the logs
// converge within two heartbeat intervals and next never falls below
// match+1.
func TestRewindAfterLoss(t *testing.T) {
	setup := func(t *testing.T) (*harness, *Node, int) {
		h := newHarness(t, 3)
		lead := h.electLeader()
		h.heartbeat()
		return h, lead, (lead.ID() + 1) % 3
	}
	settle := func(t *testing.T, h *harness, lead *Node) {
		t.Helper()
		h.filter = nil
		for i := 0; i < 2*heartbeatTicks; i++ {
			h.tickAll()
			checkProgress(t, lead)
		}
		if err := h.converged(lead); err != nil {
			t.Fatalf("not converged two heartbeat intervals after the loss: %v", err)
		}
	}

	t.Run("append dropped, heartbeat probes", func(t *testing.T) {
		h, lead, victim := setup(t)
		h.filter = func(m Message) []Message {
			if m.Type == MsgApp && m.To == victim && len(m.Entries) > 0 {
				return nil
			}
			return []Message{m}
		}
		lead.Propose([]byte("lost"))
		h.pump()
		checkProgress(t, lead)
		if got, want := h.nodes[victim].Log().LastIndex(), lead.Log().LastIndex()-1; got != want {
			t.Fatalf("victim last index %d, want %d (the append was to be lost)", got, want)
		}
		settle(t, h, lead)
	})

	t.Run("append dropped, next append probes", func(t *testing.T) {
		h, lead, victim := setup(t)
		drop := true
		h.filter = func(m Message) []Message {
			if drop && m.Type == MsgApp && m.To == victim && len(m.Entries) > 0 {
				drop = false
				return nil
			}
			return []Message{m}
		}
		lead.Propose([]byte("lost"))
		h.pump()
		lead.Propose([]byte("carrier")) // rejected at prev, rewinds, resends both
		h.pump()
		checkProgress(t, lead)
		if err := h.converged(lead); err != nil {
			t.Fatalf("the next append did not repair the gap: %v", err)
		}
		settle(t, h, lead)
	})

	t.Run("reply dropped", func(t *testing.T) {
		h, lead, victim := setup(t)
		h.filter = func(m Message) []Message {
			if m.Type == MsgAppResp && m.From == victim {
				return nil
			}
			return []Message{m}
		}
		lead.Propose([]byte("unacked"))
		h.pump()
		checkProgress(t, lead)
		if m := lead.progress(victim).match; m >= lead.Log().LastIndex() {
			t.Fatalf("leader match %d for the victim although its reply was dropped", m)
		}
		settle(t, h, lead)
	})

	t.Run("stale rejection duplicated and reordered", func(t *testing.T) {
		h, lead, victim := setup(t)
		drop := true
		var reject *Message
		h.filter = func(m Message) []Message {
			if drop && m.Type == MsgApp && m.To == victim && len(m.Entries) > 0 {
				drop = false
				return nil
			}
			if m.Type == MsgAppResp && m.From == victim && m.Reject && reject == nil {
				cp := m
				reject = &cp
			}
			return []Message{m}
		}
		lead.Propose([]byte("lost"))
		h.pump()
		lead.Propose([]byte("carrier"))
		h.pump()
		if reject == nil {
			t.Fatal("the gap drew no rejection")
		}
		if err := h.converged(lead); err != nil {
			t.Fatal(err)
		}
		lead.Propose([]byte("later"))
		h.pump()
		// The same rejection again, now behind acknowledgements that
		// passed its hint: it must neither rewind nor draw a resend.
		before := *lead.progress(victim)
		h.sent = nil
		lead.Step(*reject)
		lead.Step(*reject)
		h.pump()
		checkProgress(t, lead)
		if after := *lead.progress(victim); after != before {
			t.Fatalf("stale rejection moved progress %+v -> %+v", before, after)
		}
		if len(h.sent) != 0 {
			t.Fatalf("stale rejection drew %d message(s): %v", len(h.sent), h.sent)
		}
		settle(t, h, lead)
	})
}

// TestWindowBoundsInflight pins that a follower that never answers is sent
// one window of entries and then only empty heartbeats, and that it catches
// up, still inside the window, once it answers again.
func TestWindowBoundsInflight(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.electLeader()
	h.heartbeat()
	victim := (lead.ID() + 1) % 3
	window := maxBatch
	acked := lead.progress(victim).match

	h.down[victim] = true
	h.sent = nil
	for i := 0; i < 4*window; i++ {
		lead.Propose([]byte(fmt.Sprintf("w%d", i)))
		h.pump()
		if i%8 == 7 {
			h.nodes[lead.ID()].Tick() // heartbeats only: no election while the victim is deaf
			h.pump()
		}
		checkProgress(t, lead)
	}
	entries, highest := 0, uint64(0)
	for _, m := range h.sent {
		if m.Type != MsgApp || m.To != victim {
			continue
		}
		entries += len(m.Entries)
		if hi := m.Index + uint64(len(m.Entries)); len(m.Entries) > 0 && hi > highest {
			highest = hi
		}
	}
	if entries > window || highest > acked+uint64(window) {
		t.Fatalf("silent follower was sent %d entries up to index %d; window is %d past match %d",
			entries, highest, window, acked)
	}
	if entries == 0 {
		t.Fatal("silent follower was sent nothing: the test measured no window")
	}

	// Back on the fabric: the next heartbeat is rejected, the leader rewinds
	// to the follower's log and streams the backlog one window at a time.
	h.down[victim] = false
	for i := 0; i < 4*heartbeatTicks && h.converged(lead) != nil; i++ {
		h.nodes[lead.ID()].Tick()
		h.pump()
		checkProgress(t, lead)
	}
	if err := h.converged(lead); err != nil {
		t.Fatalf("follower did not catch up: %v", err)
	}
}

// TestConvergesAfterChaos is the liveness side of the safety properties:
// after the property harness's drops, duplicates, reorders, restarts and
// compactions stop, optimistic sends that went missing must be found and
// repaired by heartbeats alone. Thirty quiet heartbeat intervals later one
// leader remains, every log equals its log, and everything is committed
// everywhere.
func TestConvergesAfterChaos(t *testing.T) {
	seeds := uint64(60)
	if testing.Short() {
		seeds = 10
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		pc := newPropCluster(seed)
		for r := 0; r < 400; r++ {
			if err := pc.round(); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, r, err)
			}
		}
		// Election timeouts are at most 20 ticks, so 60 lossless ticks
		// leave room for an election and the catch-up after it.
		for r := 0; r < 60; r++ {
			for _, id := range pc.ids {
				pc.nodes[id].Tick()
			}
			for moved := true; moved; {
				moved = false
				for _, id := range pc.ids {
					for _, m := range pc.nodes[id].Messages() {
						pc.inbox[m.To] = append(pc.inbox[m.To], m)
					}
				}
				for _, id := range pc.ids {
					q := pc.inbox[id]
					pc.inbox[id] = nil
					for _, m := range q {
						pc.nodes[id].Step(m)
						moved = true
					}
				}
			}
			for _, id := range pc.ids {
				pc.nodes[id].CommittedEntries()
			}
			if err := pc.check(); err != nil {
				t.Fatalf("seed %d quiet tick %d: %v", seed, r, err)
			}
		}
		var lead *Node
		for _, id := range pc.ids {
			if n := pc.nodes[id]; n.State() == Leader {
				if lead != nil {
					t.Fatalf("seed %d: nodes %d and %d both lead", seed, lead.ID(), id)
				}
				lead = n
			}
		}
		if lead == nil {
			t.Fatalf("seed %d: no leader after the quiet period", seed)
		}
		checkProgress(t, lead)
		last := lead.Log().LastIndex()
		for _, id := range pc.ids {
			if n := pc.nodes[id]; n.Log().LastIndex() != last || n.Commit() != last {
				t.Fatalf("seed %d: node %d at last %d commit %d, leader's log ends at %d",
					seed, id, n.Log().LastIndex(), n.Commit(), last)
			}
		}
	}
}
