package raft

import (
	"fmt"
	"hash/fnv"
	"testing"
	"testing/quick"
)

// The property harness drives a 3-node cluster through a seeded schedule of
// ticks, proposals, message drops/dups/reorders, crash-restarts, and
// compactions, checking after every round that:
//
//  1. no committed entry is ever truncated or rewritten (an entry observed
//     committed once stays byte-identical at its index forever),
//  2. terms are monotonic per index within every log,
//  3. matching prefixes: if two logs agree on the term at index i, they hold
//     identical entries at every stored index <= i (the Log Matching
//     property).
//
// The schedule is derived from a single uint64 via splitmix64, so quick.Check
// explores many seeds and every failure reproduces from its seed.

type propRng struct{ s uint64 }

func (r *propRng) next() uint64 {
	r.s++
	return splitmix64(r.s)
}
func (r *propRng) intn(n int) int { return int(r.next() % uint64(n)) }

func entryHash(e Entry) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(e.Term >> (8 * i))
	}
	h.Write(b[:])
	h.Write(e.Data)
	return h.Sum64()
}

type propCluster struct {
	rng   *propRng
	nodes map[int]*Node
	ids   []int
	inbox map[int][]Message
	// committed[index] = hash of the entry first observed committed there.
	committed map[uint64]uint64
	maxCommit map[int]uint64
	proposals int
}

func newPropCluster(seed uint64) *propCluster {
	pc := &propCluster{rng: &propRng{s: seed}, nodes: map[int]*Node{},
		inbox: map[int][]Message{}, committed: map[uint64]uint64{}, maxCommit: map[int]uint64{}}
	peers := []int{0, 1, 2}
	for _, id := range peers {
		pc.ids = append(pc.ids, id)
		pc.nodes[id] = New(Config{ID: id, Peers: peers, Seed: seed}, HardState{Vote: None}, NewLog())
	}
	return pc
}

// round performs one scheduled action plus message shuffling, then checks
// all invariants. Returns an error describing the first violation.
func (pc *propCluster) round() error {
	switch pc.rng.intn(10) {
	case 0, 1, 2: // tick everyone
		for _, id := range pc.ids {
			pc.nodes[id].Tick()
		}
	case 3, 4: // propose on any current leader
		for _, id := range pc.ids {
			if pc.nodes[id].State() == Leader {
				pc.proposals++
				pc.nodes[id].Propose([]byte(fmt.Sprintf("p%d", pc.proposals)))
				break
			}
		}
	case 5: // crash-restart one node from its stable state
		id := pc.ids[pc.rng.intn(len(pc.ids))]
		n := pc.nodes[id]
		pc.nodes[id] = New(n.cfg, n.HardState(), n.Log())
		pc.inbox[id] = nil // volatile: in-flight messages to it are lost
		// The commit index is volatile too: monotonicity holds within an
		// incarnation, so the floor resets across the crash.
		pc.maxCommit[id] = 0
	case 6: // leader compaction
		for _, id := range pc.ids {
			if pc.nodes[id].State() == Leader {
				pc.nodes[id].MaybeCompact(uint64(pc.rng.intn(4)))
				break
			}
		}
	default: // deliver
	}

	// Drain outboxes with seeded loss and duplication.
	for _, id := range pc.ids {
		for _, m := range pc.nodes[id].Messages() {
			r := pc.rng.intn(10)
			if r == 0 {
				continue // drop
			}
			pc.inbox[m.To] = append(pc.inbox[m.To], m)
			if r == 1 {
				pc.inbox[m.To] = append(pc.inbox[m.To], m) // duplicate
			}
		}
	}
	// Deliver a seeded portion of each inbox, sometimes reordering a pair.
	for _, id := range pc.ids {
		q := pc.inbox[id]
		if len(q) == 0 {
			continue
		}
		k := pc.rng.intn(len(q) + 1)
		if k >= 2 && pc.rng.intn(4) == 0 {
			q[k-1], q[k-2] = q[k-2], q[k-1]
		}
		for _, m := range q[:k] {
			pc.nodes[id].Step(m)
		}
		pc.inbox[id] = append([]Message(nil), q[k:]...)
	}
	for _, id := range pc.ids {
		pc.nodes[id].CommittedEntries()
	}
	return pc.check()
}

func (pc *propCluster) check() error {
	for _, id := range pc.ids {
		n := pc.nodes[id]
		lg := n.Log()
		// Commit index never regresses.
		if n.Commit() < pc.maxCommit[id] {
			return fmt.Errorf("node %d commit regressed %d -> %d", id, pc.maxCommit[id], n.Commit())
		}
		pc.maxCommit[id] = n.Commit()
		// Terms monotonic per index.
		prev := uint64(0)
		for i := lg.FirstIndex(); i <= lg.LastIndex(); i++ {
			t, _ := lg.Term(i)
			if t < prev {
				return fmt.Errorf("node %d term not monotonic at index %d: %d < %d", id, i, t, prev)
			}
			prev = t
		}
		// Committed entries are stable: record on first sight, compare after.
		for i := lg.FirstIndex(); i <= n.Commit() && i <= lg.LastIndex(); i++ {
			e, _ := lg.Entry(i)
			h := entryHash(e)
			if want, ok := pc.committed[i]; ok {
				if h != want {
					return fmt.Errorf("node %d rewrote committed entry %d", id, i)
				}
			} else {
				pc.committed[i] = h
			}
		}
	}
	// Log Matching: same term at an index implies identical prefixes.
	for a := 0; a < len(pc.ids); a++ {
		for b := a + 1; b < len(pc.ids); b++ {
			la, lb := pc.nodes[pc.ids[a]].Log(), pc.nodes[pc.ids[b]].Log()
			lo := la.FirstIndex()
			if f := lb.FirstIndex(); f > lo {
				lo = f
			}
			hi := la.LastIndex()
			if l := lb.LastIndex(); l < hi {
				hi = l
			}
			for i := hi; i >= lo && i > 0; i-- {
				ta, _ := la.Term(i)
				tb, _ := lb.Term(i)
				if ta != tb {
					continue
				}
				// Terms match at i: every stored entry at <= i must match.
				for j := lo; j <= i; j++ {
					ea, _ := la.Entry(j)
					eb, _ := lb.Entry(j)
					if entryHash(ea) != entryHash(eb) {
						return fmt.Errorf("log matching violated: nodes %d/%d agree on term at %d but differ at %d",
							pc.ids[a], pc.ids[b], i, j)
					}
				}
				break // lower indices are covered by the inner loop
			}
		}
	}
	return nil
}

func TestPropertyRaftSafety(t *testing.T) {
	f := func(seed uint64) bool {
		pc := newPropCluster(seed)
		for r := 0; r < 400; r++ {
			if err := pc.round(); err != nil {
				t.Logf("seed %d round %d: %v", seed, r, err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLogOps drives the Log type alone through seeded
// append/truncate/compact sequences, checking the boundary bookkeeping.
func TestPropertyLogOps(t *testing.T) {
	f := func(seed uint64) bool {
		rng := &propRng{s: seed}
		lg := NewLog()
		mirror := map[uint64]Entry{} // index -> entry, ground truth
		term := uint64(1)
		compacted := uint64(0)
		for op := 0; op < 300; op++ {
			switch rng.intn(4) {
			case 0, 1: // append a small batch, terms nondecreasing
				if rng.intn(5) == 0 {
					term++
				}
				n := 1 + rng.intn(3)
				for i := 0; i < n; i++ {
					e := Entry{Term: term, Data: []byte{byte(rng.next())}}
					idx := lg.Append(e)
					mirror[idx] = e
				}
			case 2: // truncate a suffix above the boundary
				if lg.Len() == 0 {
					continue
				}
				from := lg.FirstIndex() + uint64(rng.intn(lg.Len()))
				lg.TruncateSuffix(from)
				for i := from; ; i++ {
					if _, ok := mirror[i]; !ok {
						break
					}
					delete(mirror, i)
				}
				if t, _ := lg.Term(lg.LastIndex()); t > 0 {
					term = t
				} else {
					term = lg.boundTerm
					if term == 0 {
						term = 1
					}
				}
			case 3: // compact a prefix
				if lg.Len() == 0 {
					continue
				}
				to := lg.FirstIndex() + uint64(rng.intn(lg.Len()))
				lg.CompactPrefix(to)
				compacted = to
			}
			// Invariants: stored range answers match the mirror; boundary
			// term answers; compaction below boundary is refused.
			if lg.FirstIndex() != compacted+1 && compacted != 0 {
				return false
			}
			for i := lg.FirstIndex(); i <= lg.LastIndex(); i++ {
				e, ok := lg.Entry(i)
				want, okm := mirror[i]
				if !ok || !okm || entryHash(e) != entryHash(want) {
					t.Logf("seed %d op %d: stored entry %d diverged from mirror", seed, op, i)
					return false
				}
			}
			if bt, ok := lg.Term(lg.FirstIndex() - 1); lg.FirstIndex() > 1 && (!ok || bt == 0) {
				t.Logf("seed %d op %d: boundary term lost", seed, op)
				return false
			}
			prev := uint64(0)
			for i := lg.FirstIndex(); i <= lg.LastIndex(); i++ {
				tt, _ := lg.Term(i)
				if tt < prev {
					t.Logf("seed %d op %d: term regression at %d", seed, op, i)
					return false
				}
				prev = tt
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestEntriesViewOutlivesTruncation: Entries hands out views, not copies,
// and a MsgApp built from one may sit in a queue while its sender steps
// down and overwrites the conflicting suffix. The view must keep reading
// the entries it was taken over.
func TestEntriesViewOutlivesTruncation(t *testing.T) {
	lg := NewLog()
	lg.Append(Entry{Term: 1, Data: []byte("a")}, Entry{Term: 1, Data: []byte("b")}, Entry{Term: 1, Data: []byte("c")})
	view := lg.Entries(2, 3)
	lg.TruncateSuffix(2)
	lg.Append(Entry{Term: 2, Data: []byte("x")}, Entry{Term: 2, Data: []byte("y")})
	if len(view) != 2 || view[0].Term != 1 || string(view[0].Data) != "b" || string(view[1].Data) != "c" {
		t.Fatalf("view of entries 2-3 reads %+v after the suffix was replaced", view)
	}
	if e, _ := lg.Entry(2); e.Term != 2 || string(e.Data) != "x" {
		t.Fatalf("log entry 2 is %+v, want the replacement", e)
	}
}

// TestTruncateBelowBoundaryPanics pins the "no committed entry is ever
// truncated" guard: the compaction boundary is committed everywhere by
// construction, so suffix truncation below it must refuse loudly.
func TestTruncateBelowBoundaryPanics(t *testing.T) {
	lg := NewLog()
	lg.Append(Entry{Term: 1}, Entry{Term: 1}, Entry{Term: 2})
	lg.CompactPrefix(2)
	defer func() {
		if recover() == nil {
			t.Fatal("TruncateSuffix below the compaction boundary did not panic")
		}
	}()
	lg.TruncateSuffix(1)
}
