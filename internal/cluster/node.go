package cluster

import (
	"errors"
	"fmt"
	"sort"

	"aeolia/internal/machine"
	"aeolia/internal/netsim"
	"aeolia/internal/raft"
	"aeolia/internal/rxport"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
	"aeolia/internal/uintr"
)

// User-interrupt vectors of a node's rx UPID. Raft traffic (AppendEntries,
// votes, heartbeats) posts the urgent vector so elections don't fire
// spuriously while the node digests a client burst; client requests post
// the normal one.
const (
	raftUserVector   = 6
	clientUserVector = 7
)

// pendingCmd is a proposed-but-unacknowledged client command on its
// proposer. Volatile: a crash loses it and the client retries.
type pendingCmd struct {
	term   uint64 // proposal term: a different term at apply means the entry was replaced
	id     uint32
	reply  string
	lba    uint64
	isRead bool
}

// group is one placement group's replica on a node: the raft instance plus
// the applied block store. The store and appliedHash audit map model the
// node's durable local device — they survive CrashAndReset; pending does
// not.
type group struct {
	pg    int
	peers []int
	raft  *raft.Node

	store       map[uint64]block  // lba → the newest write applied to it
	appliedHash map[uint64]uint32 // raft index → applied payload hash (audit)
	pending     map[uint64]pendingCmd

	announceTerm  uint64 // set by the OnLeader hook, drained to a monitor report
	announcedTerm uint64
}

// block is one stored block: the bytes applied and the raft index of the
// write that applied them. A follower's bytes alias the frame the entry
// arrived in, so VerifyAcks re-hashes them against appliedHash[index].
type block struct {
	data  []byte
	index uint64
}

// OSD is one storage node: an endpoint on the fabric, a uintr-driven rx
// loop, and one raft group per placement group it hosts.
type OSD struct {
	c    *Cluster
	id   int
	proc *machine.Process
	ep   *netsim.Endpoint
	core *sim.Core

	groups map[int]*group
	pgs    []int // hosted pgs, sorted (deterministic iteration)

	down    bool
	tickDue bool

	// rx is the node's user-interrupt receive port (bound by run).
	rx rxport.Port

	// ents is the entries scratch raft frames decode into: Step copies the
	// entries into the log before the next frame is decoded.
	ents []raft.Entry
	// tickFn is n.onTick, bound once: the repeating tick event's callback.
	tickFn func()

	ticksToCompact int

	// Stats.
	Crashes, Partitions   uint64
	RaftMsgs, TxOverflows uint64
	Compactions           uint64
}

func newOSD(c *Cluster, id int, proc *machine.Process) *OSD {
	n := &OSD{c: c, id: id, proc: proc, ep: c.Fab.Endpoint(c.osdNames[id]),
		core:           c.M.Eng.Core(id),
		groups:         make(map[int]*group),
		ticksToCompact: c.cfg.CompactEvery}
	n.tickFn = n.onTick
	n.ep.BindCore(n.core)
	for pg, ms := range c.members {
		hosted := false
		for _, m := range ms {
			if m == id {
				hosted = true
			}
		}
		if !hosted {
			continue
		}
		g := &group{pg: pg, peers: ms,
			store:       make(map[uint64]block),
			appliedHash: make(map[uint64]uint32),
			pending:     make(map[uint64]pendingCmd)}
		g.raft = raft.New(n.raftConfig(ms), raft.HardState{Vote: raft.None}, raft.NewLog())
		n.installHooks(g)
		n.groups[pg] = g
		n.pgs = append(n.pgs, pg)
	}
	sort.Ints(n.pgs)
	return n
}

func (n *OSD) raftConfig(peers []int) raft.Config {
	return raft.Config{ID: n.id, Peers: peers,
		ElectionTicks:  n.c.cfg.ElectionTicks,
		HeartbeatTicks: n.c.cfg.HeartbeatTicks,
		Seed:           n.c.cfg.Seed}
}

// installHooks wires the group's raft transitions into the trace stream.
// Hooks run synchronously inside Step/Propose/Tick, so emission order
// matches causal order exactly.
func (n *OSD) installHooks(g *group) {
	eng := n.c.M.Eng
	g.raft.SetHooks(raft.Hooks{
		OnLeader: func(term uint64) {
			g.announceTerm = term
			if tr := eng.Tracer; tr != nil {
				tr.Emit(eng.Now(), trace.RaftLeader, n.id, g.pg, uint32(n.id), 0, term)
			}
		},
		OnAccept: func(index, term uint64) {
			if tr := eng.Tracer; tr != nil {
				tr.Emit(eng.Now(), trace.RaftAccept, n.id, g.pg, uint32(n.id), index, term)
			}
		},
		OnCommit: func(index uint64) {
			if tr := eng.Tracer; tr != nil {
				tr.Emit(eng.Now(), trace.RaftCommit, n.id, g.pg, uint32(n.id), index, 0)
			}
		},
	})
}

// Group returns the node's replica of pg (nil if not hosted).
func (n *OSD) Group(pg int) *raft.Node {
	if g := n.groups[pg]; g != nil {
		return g.raft
	}
	return nil
}

// Down reports whether the node is currently crashed.
func (n *OSD) Down() bool { return n.down }

// run is the node task body: bind the uintr receive port — raft frames post
// the urgent vector, client frames the normal one — then loop over ticks,
// raft frames, and client requests. The port's wait always blocks.
func (n *OSD) run(env *sim.Env) {
	err := n.rx.Bind(env, n.c.M.Kern, n.proc.Gate, n.ep, rxport.Config{
		Classes: uintr.NewClassMap(uintr.ClassNormal).Set(raftUserVector, uintr.ClassUrgent),
		Vector: func(m *netsim.Msg) uint8 {
			if len(m.Payload) > 0 && m.Payload[0] == magicRaft {
				return raftUserVector
			}
			return clientUserVector
		},
		Woken: func() bool { return n.c.stopped || n.tickDue },
	})
	if err != nil {
		n.c.fail(fmt.Errorf("cluster: %s bind: %w", osdName(n.id), err))
		return
	}
	n.scheduleTick()
	for {
		if n.c.stopped {
			return
		}
		if n.tickDue {
			n.tickDue = false
			if !n.down {
				n.tick(env)
			}
		}
		// A nil frame is a wake for the conditions checked above. A crash
		// empties the inbox, so a node that went down mid-drain falls through
		// Recv's unmask into the wait.
		if m := n.rx.Recv(env); m != nil && !n.down {
			n.handle(env, m)
		}
	}
}

// scheduleTick arms the repeating logical-clock event; it only marks the
// tick due and wakes the task — raft work happens in task context where CPU
// can be charged.
func (n *OSD) scheduleTick() {
	n.core.Schedule(n.c.cfg.tickInterval(), n.tickFn)
}

func (n *OSD) onTick() {
	if n.c.stopped {
		return
	}
	n.tickDue = true
	n.ep.SignalArrival()
	n.scheduleTick()
}

func (n *OSD) tick(env *sim.Env) {
	compact := false
	if n.c.cfg.CompactEvery > 0 {
		n.ticksToCompact--
		if n.ticksToCompact <= 0 {
			n.ticksToCompact = n.c.cfg.CompactEvery
			compact = true
		}
	}
	for _, pg := range n.pgs {
		g := n.groups[pg]
		g.raft.Tick()
		if compact && g.raft.State() == raft.Leader {
			if to := g.raft.MaybeCompact(compactKeepTail); to > 0 {
				n.Compactions++
			}
		}
	}
	n.drain(env)
}

// handle processes one received frame.
func (n *OSD) handle(env *sim.Env, m *netsim.Msg) {
	env.Exec(netsim.RxCost)
	if len(m.Payload) == 0 {
		return
	}
	switch m.Payload[0] {
	case magicRaft:
		f, err := decodeRaftFrame(m.Payload, n.ents)
		if err != nil {
			return
		}
		n.ents = f.Msg.Entries
		n.RaftMsgs++
		if len(f.Msg.Entries) == 0 {
			// Nothing of a frame without entries outlives its decode. One
			// with entries is this replica's copy of the blocks: the log and
			// the store alias it, and its sender allocated it to size.
			n.ep.Release(m)
		}
		g := n.groups[int(f.PG)]
		if g == nil {
			return
		}
		g.raft.Step(f.Msg)
		n.drain(env)

	case magicReq:
		req, err := decodeRequest(m.Payload)
		if err != nil {
			return
		}
		n.handleRequest(env, m, req)
		// The proposed command is a copy and the reply goes to the fabric's
		// name for the source: the request frame is done with.
		n.ep.Release(m)
	}
}

func (n *OSD) handleRequest(env *sim.Env, m *netsim.Msg, req request) {
	g := n.groups[int(req.PG)]
	resp := response{ID: req.ID, PG: req.PG, Leader: -1}
	if g == nil {
		resp.Status = StatusErr
		n.respond(env, m.Src, resp)
		return
	}
	if g.raft.State() != raft.Leader {
		resp.Status = StatusNotLeader
		resp.Leader = int16(g.raft.Leader())
		n.respond(env, m.Src, resp)
		return
	}
	// The pre-append point: the leader holds the write but has not yet
	// appended or fanned it out.
	if req.Op == OpWrite && n.faultPoint(env, PointPreAppend) {
		return
	}
	cmd := command{Op: req.Op, ID: req.ID, LBA: req.LBA, Reply: req.Reply, Data: req.Data}
	if cmd.size() > maxField {
		// The block fits a request but not, with the command header, a raft
		// entry.
		resp.Status = StatusErr
		n.respond(env, m.Src, resp)
		return
	}
	// The log keeps the entry and the store its data, so it is allocated to
	// size.
	idx, term, ok := g.raft.Propose(cmd.encode(make([]byte, 0, cmd.size())))
	if !ok {
		resp.Status = StatusNotLeader
		resp.Leader = int16(g.raft.Leader())
		n.respond(env, m.Src, resp)
		return
	}
	g.pending[idx] = pendingCmd{term: term, id: req.ID, reply: m.Src,
		lba: req.LBA, isRead: req.Op == OpRead}
	n.drain(env)
}

// drain flushes every group's outbox, leadership reports, and committed
// entries. Called after any Tick/Step/Propose.
func (n *OSD) drain(env *sim.Env) {
	for _, pg := range n.pgs {
		g := n.groups[pg]
		if g.announceTerm > g.announcedTerm {
			g.announcedTerm = g.announceTerm
			n.send(env, "mon", monReport{PG: uint16(pg), Term: g.announceTerm,
				Leader: int16(n.id)}.encode())
		}
		for _, msg := range g.raft.Messages() {
			f := raftFrame{PG: uint16(pg), Msg: msg}
			var b []byte
			if len(msg.Entries) == 0 {
				b = n.ep.Frame(f.size())
			} else {
				// The follower keeps this frame (see handle): allocated to
				// size, since it never comes back.
				b = make([]byte, 0, f.size())
			}
			n.send(env, n.c.osdNames[msg.To], f.encode(b))
		}
		if n.applyCommitted(env, g) {
			return // crashed mid-apply
		}
		if n.down {
			return
		}
	}
}

// applyCommitted applies every newly committed entry to the group's store,
// answering the proposals this node still holds pending. Returns true if a
// fault-point crash interrupted the node.
//
// A write's block is hashed once per replica: that hash is the audit
// witness (appliedHash) and, on the proposer, the acknowledged hash. The
// RaftApply event's hash of the whole entry is computed only for a tracer.
func (n *OSD) applyCommitted(env *sim.Env, g *group) bool {
	eng := n.c.M.Eng
	for _, ie := range g.raft.CommittedEntries() {
		data := ie.Entry.Data
		if len(data) > 0 && n.faultPoint(env, PointPreApply) {
			// Committed but not applied: recovery re-applies from the
			// compaction boundary, idempotently.
			return true
		}
		var cmd command
		write := false
		if len(data) > 0 {
			c, err := decodeCommand(data)
			cmd, write = c, err == nil && c.Op == OpWrite
		}
		var applied uint32
		if write {
			g.store[cmd.LBA] = block{data: cmd.Data, index: ie.Index}
			applied = fnv32(cmd.Data)
		} else {
			applied = fnv32(data) // a no-op or a read: a few header bytes
		}
		g.appliedHash[ie.Index] = applied
		if tr := eng.Tracer; tr != nil {
			entryHash := applied
			if write {
				entryHash = fnv32(data)
			}
			tr.Emit(eng.Now(), trace.RaftApply, n.id, g.pg, uint32(n.id), ie.Index, uint64(entryHash))
		}
		p, isPending := g.pending[ie.Index]
		if !isPending {
			continue
		}
		delete(g.pending, ie.Index)
		if p.term != ie.Entry.Term {
			// The proposal was replaced by another leader's entry at this
			// index; the client will time out and retry.
			continue
		}
		// The post-quorum point: committed and applied, ack not yet sent.
		if n.faultPoint(env, PointPostQuorum) {
			return true
		}
		resp := response{Status: StatusOK, ID: p.id, PG: uint16(g.pg), Leader: int16(n.id), Index: ie.Index}
		if p.isRead {
			// A read reports the hash of the bytes it serves, computed from
			// them, never looked up: it is what the audit trusts them by.
			val := g.store[p.lba].data
			resp.Hash = fnv32(val)
			resp.Data = val
			if tr := eng.Tracer; tr != nil {
				tr.Emit(eng.Now(), trace.ClusterRead, n.id, g.pg, p.id, p.lba,
					ie.Index<<32|uint64(resp.Hash))
			}
		} else {
			resp.Hash = applied
		}
		n.respond(env, p.reply, resp)
	}
	return false
}

// respond answers a client. The client releases the frame once it has
// decoded it, so it comes from this node's free list.
func (n *OSD) respond(env *sim.Env, dst string, r response) {
	n.send(env, dst, r.encode(n.ep.Frame(r.size())))
}

// send transmits best-effort: link overflow is counted and dropped (raft
// retransmits, clients retry); other errors are fatal wiring bugs.
func (n *OSD) send(env *sim.Env, dst string, payload []byte) {
	if err := n.ep.Send(env, dst, payload); err != nil {
		if errors.Is(err, netsim.ErrOverflow) {
			n.TxOverflows++
			return
		}
		n.c.fail(fmt.Errorf("cluster: %s send to %s: %w", osdName(n.id), dst, err))
	}
}

// fire consults the fault plan.
func (n *OSD) fire(site string) bool {
	p := n.c.cfg.Plan
	return p != nil && p.Fire(site)
}

// faultPoint evaluates the crash/partition sites for point on this node.
// Returns true when the node crashed (the caller must stop processing).
func (n *OSD) faultPoint(env *sim.Env, point string) bool {
	if n.c.cfg.Plan == nil {
		return false // before the site names are built: this runs per applied entry
	}
	if n.fire(Site(KindCrash, point, n.id)) {
		n.crash(env)
		return true
	}
	if n.fire(Site(KindPartSym, point, n.id)) {
		n.c.partition(n.id, true)
	}
	if n.fire(Site(KindPartAsym, point, n.id)) {
		n.c.partition(n.id, false)
	}
	return false
}

// crash is CrashAndReset: the node drops off the fabric, loses all volatile
// state, and restarts from stable storage (HardState + log + applied store)
// after RestartDelay.
func (n *OSD) crash(env *sim.Env) {
	if n.down {
		return
	}
	n.down = true
	n.Crashes++
	n.c.CrashTimes = append(n.c.CrashTimes, env.Now())
	n.ep.Close()
	for _, pg := range n.pgs {
		n.groups[pg].pending = make(map[uint64]pendingCmd)
	}
	env.Schedule(n.c.cfg.restartDelay(), func() {
		if n.c.stopped {
			return
		}
		n.restart()
		n.ep.SignalArrival()
	})
}

// restart rebuilds every raft group from its stable state (event context:
// pure state reconstruction, no CPU charged — the model is a fast reboot
// whose cost is RestartDelay).
func (n *OSD) restart() {
	eng := n.c.M.Eng
	for _, pg := range n.pgs {
		g := n.groups[pg]
		hs, lg := g.raft.HardState(), g.raft.Log()
		g.raft = raft.New(n.raftConfig(g.peers), hs, lg)
		n.installHooks(g)
		if tr := eng.Tracer; tr != nil {
			tr.Emit(eng.Now(), trace.RaftRestart, n.id, pg, uint32(n.id), 0, 0)
		}
	}
	n.ep.Reopen()
	n.down = false
}
