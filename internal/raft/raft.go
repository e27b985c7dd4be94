// Package raft is a deterministic, message-driven raft consensus core for
// the Aeolia reproduction's replicated block cluster (internal/cluster):
// leader election, log replication, term/commit safety, and snapshot-free
// compaction by truncation (a leader only sanctions discarding prefixes
// every replica already stores, so a lagging follower never needs a
// snapshot transfer).
//
// The core is transport- and clock-free: callers feed it Step(msg) and
// Tick() and drain Messages() / CommittedEntries(). All randomness (the
// per-term election timeout) is a pure function of (seed, id, term), so a
// cluster of nodes driven from a deterministic event loop replays
// byte-identically — the property every golden experiment and the failover
// fault matrix rely on.
//
// The leader is economical with messages: each entry goes to each follower
// once (sendAppend advances next optimistically; rejections and heartbeats
// repair losses), the commit index rides on messages sent anyway, and a
// follower that was sent an append since the last heartbeat tick gets no
// heartbeat at that tick. Replicating one entry costs 2*(replicas-1) messages.
package raft

import (
	"fmt"

	"aeolia/internal/mix"
)

// State is a node's role.
type State uint8

const (
	// Follower nodes accept entries from the leader of their term.
	Follower State = iota
	// Candidate nodes are soliciting votes after an election timeout.
	Candidate
	// Leader nodes accept proposals and replicate them.
	Leader
)

func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	}
	return "state?"
}

// None marks an unknown node id (no vote cast, no known leader).
const None = -1

// HardState is the durable per-node state raft requires across crashes.
// The log itself is the third piece of stable storage.
type HardState struct {
	Term uint64
	Vote int
}

// Config parameterizes one node.
type Config struct {
	// ID is this node's id; Peers lists every member id including ID.
	ID    int
	Peers []int
	// Seed drives the randomized election timeouts.
	Seed uint64
}

const (
	// electionTicks is the base election timeout in ticks; each term draws
	// a deterministic extra in [0, electionTicks) from (Seed, ID, Term).
	electionTicks = 10
	// heartbeatTicks is the leader's heartbeat interval.
	heartbeatTicks = 2
	// maxBatch bounds entries per AppendEntries, and with it the entries in
	// flight to one follower: past it the leader sends only as
	// acknowledgements arrive.
	maxBatch = 64
)

// IndexedEntry is a committed entry ready to apply, paired with its index.
type IndexedEntry struct {
	Index uint64
	Entry Entry
}

// Hooks observe the safety-relevant transitions (for tracing). All fields
// are optional; hooks must not call back into the node.
type Hooks struct {
	// OnLeader fires when this node becomes leader of the given term.
	OnLeader func(term uint64)
	// OnAccept fires when an entry is appended (stored durably), including
	// conflict overwrites at a previously accepted index.
	OnAccept func(index, term uint64)
	// OnCommit fires when the commit index advances.
	OnCommit func(index uint64)
}

// Node is one raft participant.
type Node struct {
	cfg   Config
	state State
	term  uint64
	vote  int
	lead  int
	log   *Log

	commit  uint64
	applied uint64

	elapsed int // ticks since last heartbeat (leader) / last reset (others)
	timeout int // this term's randomized election timeout in ticks

	votes map[int]bool
	prs   []progress // leader only: one per peer, this node included

	// msgs collects the outbox; spare is the slice the previous Messages
	// returned, whose storage the next drain reuses.
	msgs, spare []Message
	// applying backs the slice CommittedEntries returns.
	applying []IndexedEntry
	hooks    Hooks

	// Elections counts campaigns started; Grants counts votes this node
	// granted; Heartbeats counts heartbeat broadcasts sent as leader.
	Elections, Grants, Heartbeats uint64
}

// progress is what a leader knows about one peer's log. Each entry goes to
// each follower once: next runs ahead of match by whatever is in flight,
// and only a rejection (or a rejected heartbeat) brings it back.
type progress struct {
	id int // the peer
	// match is the highest index the peer acknowledged storing.
	match uint64
	// next is the first index not yet sent. sendAppend advances it past
	// what it sends, without waiting for the acknowledgement.
	next uint64
	// probe is next-1 as of the election or the last rewind: until the
	// peer acknowledges past it, it stands in for match as the base of the
	// in-flight window.
	probe uint64
	// sent records an append since the last heartbeat tick; that tick
	// skips the peer, the traffic having reset its election timer already.
	sent bool
}

// New builds a node from its durable state. Fresh nodes pass
// HardState{Vote: None} and NewLog(); a restarting node passes whatever it
// persisted — volatile state (commit index, role, peers' progress) is
// rebuilt by the protocol.
func New(cfg Config, hs HardState, log *Log) *Node {
	if log == nil {
		log = NewLog()
	}
	if hs.Vote == 0 && hs.Term == 0 {
		hs.Vote = None
	}
	n := &Node{cfg: cfg, log: log}
	n.becomeFollower(hs.Term, None)
	n.vote = hs.Vote
	// Restarted nodes may only re-apply from the compaction boundary; the
	// boundary prefix is applied state by construction.
	n.applied = log.FirstIndex() - 1
	n.commit = n.applied
	return n
}

// ID returns the node id.
func (n *Node) ID() int { return n.cfg.ID }

// State returns the node's current role.
func (n *Node) State() State { return n.state }

// Term returns the current term.
func (n *Node) Term() uint64 { return n.term }

// Leader returns the known leader of the current term (None if unknown).
func (n *Node) Leader() int { return n.lead }

// Commit returns the commit index.
func (n *Node) Commit() uint64 { return n.commit }

// Applied returns the last applied index.
func (n *Node) Applied() uint64 { return n.applied }

// Log exposes the underlying log (stable storage; the cluster node hands it
// back to New on restart).
func (n *Node) Log() *Log { return n.log }

// HardState returns the durable state to persist alongside the log.
func (n *Node) HardState() HardState { return HardState{Term: n.term, Vote: n.vote} }

// SetHooks installs observation hooks (replacing any previous set).
func (n *Node) SetHooks(h Hooks) { n.hooks = h }

func (n *Node) notifyAccept(index, term uint64) {
	if n.hooks.OnAccept != nil {
		n.hooks.OnAccept(index, term)
	}
}

func (n *Node) setCommit(c uint64) {
	if c <= n.commit {
		return
	}
	n.commit = c
	if n.hooks.OnCommit != nil {
		n.hooks.OnCommit(c)
	}
}

// Messages drains the outbox: every message generated since the last drain,
// in generation order. The outbox is double-buffered, so the slice is valid
// until the next Messages call; copy out any message kept longer (a Message
// value is safe to keep: its Entries are a view of a log, see Log.Entries).
func (n *Node) Messages() []Message {
	out := n.msgs
	n.msgs, n.spare = n.spare[:0], out
	return out
}

// CommittedEntries returns the entries in (applied, commit] and marks them
// applied. The caller must apply them in order before the next call. The
// slice is the node's own buffer, valid until the node's next Step, Tick,
// Propose or CommittedEntries.
func (n *Node) CommittedEntries() []IndexedEntry {
	if n.applied >= n.commit {
		return nil
	}
	n.applying = n.applying[:0]
	for i, e := range n.log.Entries(n.applied+1, n.commit) {
		n.applying = append(n.applying, IndexedEntry{Index: n.applied + 1 + uint64(i), Entry: e})
	}
	n.applied = n.commit
	return n.applying
}

// quorum returns the majority size.
func (n *Node) quorum() int { return len(n.cfg.Peers)/2 + 1 }

func (n *Node) send(m Message) {
	m.From = n.cfg.ID
	m.Term = n.term
	n.msgs = append(n.msgs, m)
}

// resetTimeout draws this term's election timeout: electionTicks + uniform
// in [0, electionTicks), deterministic in (seed, id, term) so identically
// seeded runs elect identically.
func (n *Node) resetTimeout() {
	h := mix.SplitMix64(n.cfg.Seed ^ uint64(n.cfg.ID)*0x9e3779b97f4a7c15 ^ n.term<<17)
	n.timeout = electionTicks + int(h%electionTicks)
	n.elapsed = 0
}

func (n *Node) becomeFollower(term uint64, lead int) {
	if term > n.term {
		n.vote = None
	}
	n.state = Follower
	n.term = term
	n.lead = lead
	n.votes = nil
	n.prs = nil
	n.resetTimeout()
}

func (n *Node) becomeCandidate() {
	n.state = Candidate
	n.term++
	n.vote = n.cfg.ID
	n.lead = None
	n.votes = map[int]bool{n.cfg.ID: true}
	n.resetTimeout()
	n.Elections++
}

func (n *Node) becomeLeader() {
	n.state = Leader
	n.lead = n.cfg.ID
	n.elapsed = 0
	last := n.log.LastIndex()
	n.prs = make([]progress, len(n.cfg.Peers))
	for i, p := range n.cfg.Peers {
		n.prs[i] = progress{id: p, next: last + 1, probe: last}
	}
	// The no-op: a leader may only count replicas of its own term toward
	// commit, so it commits one immediately to unblock older entries.
	n.log.Append(Entry{Term: n.term})
	n.progress(n.cfg.ID).match = n.log.LastIndex()
	if n.hooks.OnLeader != nil {
		n.hooks.OnLeader(n.term)
	}
	n.notifyAccept(n.log.LastIndex(), n.term)
	n.maybeCommit()
	n.bcastAppend()
}

// Tick advances the node's logical clock by one tick. Leaders heartbeat
// the peers they sent nothing since the last heartbeat tick; others campaign
// when the election timeout expires.
func (n *Node) Tick() {
	n.elapsed++
	if n.state == Leader {
		if n.elapsed >= heartbeatTicks {
			n.elapsed = 0
			n.Heartbeats++
			for i := range n.prs {
				pr := &n.prs[i]
				if pr.id != n.cfg.ID && !pr.sent {
					n.sendAppend(pr, true)
				}
				pr.sent = false
			}
		}
		return
	}
	if n.elapsed >= n.timeout {
		n.campaign()
	}
}

func (n *Node) campaign() {
	n.becomeCandidate()
	if n.quorum() == 1 {
		n.becomeLeader()
		return
	}
	last := n.log.LastIndex()
	lastTerm, _ := n.log.Term(last)
	for _, p := range n.cfg.Peers {
		if p == n.cfg.ID {
			continue
		}
		n.send(Message{Type: MsgVote, To: p, Index: last, LogTerm: lastTerm})
	}
}

// Propose appends data to the log if this node is the leader, returning the
// entry's (index, term). ok is false on non-leaders.
func (n *Node) Propose(data []byte) (index, term uint64, ok bool) {
	if n.state != Leader {
		return 0, 0, false
	}
	idx := n.log.Append(Entry{Term: n.term, Data: data})
	n.progress(n.cfg.ID).match = idx
	n.notifyAccept(idx, n.term)
	n.maybeCommit()
	n.bcastAppend()
	return idx, n.term, true
}

// Step feeds one message into the state machine.
func (n *Node) Step(m Message) {
	if m.Term > n.term {
		lead := None
		if m.Type == MsgApp {
			lead = m.From
		}
		n.becomeFollower(m.Term, lead)
	}
	if m.Term < n.term {
		switch m.Type {
		case MsgVote:
			n.send(Message{Type: MsgVoteResp, To: m.From, Reject: true})
		case MsgApp:
			// Tell a stale leader about the newer term.
			n.send(Message{Type: MsgAppResp, To: m.From, Reject: true, Index: n.log.LastIndex()})
		}
		return
	}
	switch m.Type {
	case MsgVote:
		n.handleVote(m)
	case MsgVoteResp:
		if n.state != Candidate {
			return
		}
		n.votes[m.From] = !m.Reject
		granted := 0
		for _, g := range n.votes {
			if g {
				granted++
			}
		}
		if granted >= n.quorum() {
			n.becomeLeader()
		}
	case MsgApp:
		if n.state != Follower {
			// Same-term candidate (or impossible same-term leader): a
			// legitimate leader exists, step down.
			n.becomeFollower(m.Term, m.From)
		}
		n.lead = m.From
		n.elapsed = 0
		n.handleAppend(m)
	case MsgAppResp:
		if n.state != Leader {
			return
		}
		n.handleAppendResp(m)
	}
}

func (n *Node) handleVote(m Message) {
	last := n.log.LastIndex()
	lastTerm, _ := n.log.Term(last)
	upToDate := m.LogTerm > lastTerm || (m.LogTerm == lastTerm && m.Index >= last)
	canVote := n.vote == None || n.vote == m.From
	if canVote && upToDate && n.lead == None {
		n.vote = m.From
		n.elapsed = 0
		n.Grants++
		n.send(Message{Type: MsgVoteResp, To: m.From})
		return
	}
	n.send(Message{Type: MsgVoteResp, To: m.From, Reject: true})
}

func (n *Node) handleAppend(m Message) {
	// Consistency check at prevIndex.
	if m.Index < n.log.FirstIndex()-1 {
		// The prev point is inside our compacted prefix: everything there
		// is committed and identical by construction; answer with our
		// boundary so the leader fast-forwards.
		n.send(Message{Type: MsgAppResp, To: m.From, Index: n.log.FirstIndex() - 1})
		return
	}
	t, ok := n.log.Term(m.Index)
	if !ok || t != m.LogTerm {
		// The hint is where the leader should probe next: our last index
		// when prev lies beyond it, else one below the mismatch.
		hint := n.log.LastIndex()
		if m.Index > 0 && m.Index-1 < hint {
			hint = m.Index - 1
		}
		n.send(Message{Type: MsgAppResp, To: m.From, Reject: true, Index: hint})
		return
	}
	// Scan for the first conflict; truncate and append the rest.
	lastNew := m.Index + uint64(len(m.Entries))
	for i, e := range m.Entries {
		idx := m.Index + 1 + uint64(i)
		if et, ok := n.log.Term(idx); ok {
			if et == e.Term {
				continue
			}
			if idx <= n.commit {
				panic(fmt.Sprintf("raft: node %d: conflict at committed index %d (term %d vs %d)",
					n.cfg.ID, idx, et, e.Term))
			}
			n.log.TruncateSuffix(idx)
		}
		n.log.Append(m.Entries[i:]...)
		for j := i; j < len(m.Entries); j++ {
			n.notifyAccept(m.Index+1+uint64(j), m.Entries[j].Term)
		}
		break
	}
	if c := m.Commit; c > n.commit {
		if lastNew < c {
			c = lastNew
		}
		n.setCommit(c)
	}
	if m.Compact > 0 {
		// The leader sanctions compaction only up to the index every
		// replica stores; we additionally wait until we applied it.
		c := m.Compact
		if c > n.applied {
			c = n.applied
		}
		n.log.CompactPrefix(c)
	}
	n.send(Message{Type: MsgAppResp, To: m.From, Index: lastNew})
}

func (n *Node) handleAppendResp(m Message) {
	pr := n.progress(m.From)
	if pr == nil {
		return
	}
	if m.Reject {
		// A peer's log always holds everything it acknowledged to this
		// leader, so a rejection it answers now hints at match or above; a
		// lower hint was overtaken by a later acknowledgement. One at or
		// above next-1 repeats a rewind already made.
		if m.Index < pr.match || m.Index+1 >= pr.next {
			return
		}
		pr.next, pr.probe = m.Index+1, m.Index
		n.sendAppend(pr, true)
		return
	}
	if m.Index > pr.match {
		pr.match = m.Index
	}
	if m.Index+1 > pr.next {
		pr.next = m.Index + 1
	}
	// The advanced commit index rides on the next append or heartbeat. An
	// acknowledgement opens the window: send what it was holding back.
	n.maybeCommit()
	n.sendAppend(pr, false)
}

// progress returns the leader's record for peer id (nil if id is unknown).
func (n *Node) progress(id int) *progress {
	for i := range n.prs {
		if n.prs[i].id == id {
			return &n.prs[i]
		}
	}
	return nil
}

// maybeCommit advances the commit index to the highest index replicated on
// a quorum whose entry is from the current term.
func (n *Node) maybeCommit() {
	// Insertion sort, descending, on the stack for the usual group sizes.
	var buf [7]uint64
	ms := buf[:0]
	for i := range n.prs {
		v := n.prs[i].match
		j := len(ms)
		ms = append(ms, v)
		for ; j > 0 && ms[j-1] < v; j-- {
			ms[j] = ms[j-1]
		}
		ms[j] = v
	}
	mid := ms[n.quorum()-1]
	if mid <= n.commit {
		return
	}
	if t, ok := n.log.Term(mid); ok && t == n.term {
		n.setCommit(mid)
	}
}

// compactTo returns the leader-sanctioned compaction boundary: the highest
// index every replica has acknowledged and this node has applied.
func (n *Node) compactTo() uint64 {
	if n.state != Leader {
		return 0
	}
	min := n.applied
	for i := range n.prs {
		if m := n.prs[i].match; m < min {
			min = m
		}
	}
	return min
}

// MaybeCompact truncates the leader's applied, fully replicated prefix,
// keeping keepTail entries of history for straggler probes. It returns the
// new boundary (0 when nothing was compacted). Followers compact when the
// boundary arrives on subsequent MsgApps.
func (n *Node) MaybeCompact(keepTail uint64) uint64 {
	to := n.compactTo()
	if to <= keepTail {
		return 0
	}
	to -= keepTail
	if to < n.log.FirstIndex() {
		return 0
	}
	n.log.CompactPrefix(to)
	return to
}

func (n *Node) bcastAppend() {
	for i := range n.prs {
		if n.prs[i].id != n.cfg.ID {
			n.sendAppend(&n.prs[i], false)
		}
	}
}

// sendAppend is the one place a MsgApp is built: it sends the peer the
// entries from pr.next up to the edge of its in-flight window and moves
// pr.next past them. With nothing to send it stays silent unless empty is
// set — a heartbeat, or the probe after a rewind — and then the message
// carries only the consistency check at next-1, Commit and Compact.
func (n *Node) sendAppend(pr *progress, empty bool) {
	if first := n.log.FirstIndex(); pr.next < first {
		// The prefix below first is compacted; by the compaction contract
		// the follower already stores it.
		pr.next = first
	}
	es := n.log.Entries(pr.next, max(pr.match, pr.probe)+maxBatch)
	if len(es) == 0 && !empty {
		return
	}
	prev := pr.next - 1
	prevTerm, ok := n.log.Term(prev)
	if !ok {
		panic(fmt.Sprintf("raft: node %d: no term for prev index %d (first %d last %d)",
			n.cfg.ID, prev, n.log.FirstIndex(), n.log.LastIndex()))
	}
	pr.next += uint64(len(es))
	pr.sent = true
	n.send(Message{
		Type: MsgApp, To: pr.id, Index: prev, LogTerm: prevTerm,
		Commit: n.commit, Compact: n.log.FirstIndex() - 1, Entries: es,
	})
}
