// Package cluster is the replicated multi-raft block cluster of the Aeolia
// reproduction: a monitor service owning the osd/pg map, N storage nodes on
// the netsim fabric with one raft group per placement group
// (internal/raft), and a PG-routing client that retries through leader
// changes. Replicated writes flow client → PG leader → AppendEntries
// fan-out over netsim → quorum commit → apply to each node's block store.
//
// Raft traffic and client traffic share each node's prioritized uintr path:
// the delivery hook inspects the frame magic and posts raft frames on an
// urgent-class vector and client frames on a normal-class one, so
// AppendEntries/heartbeats preempt request processing and elections don't
// fire spuriously while a node digests a client burst.
//
// Every node's block store stands in for its local durable device: raft's
// stable state (HardState + log) and the applied store survive a
// CrashAndReset; volatile state (role, commit/applied cursors, pending
// acknowledgements, in-flight messages) does not. The whole cluster runs on
// one sim.Engine, so identically seeded runs replay byte-identically —
// including elections, crashes, and partitions.
package cluster

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeokern"
	"aeolia/internal/faultinject"
	"aeolia/internal/machine"
	"aeolia/internal/netsim"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

// Config parameterizes a cluster.
type Config struct {
	// Nodes is the OSD count; PGs the placement-group count; RF the
	// replication factor (members per group, RF <= Nodes).
	Nodes, PGs, RF int
	// Clients and OpsPerClient shape the closed-loop workload; WritePct is
	// the percentage of writes (default 70).
	Clients, OpsPerClient int
	WritePct              int
	// PayloadBytes sizes each written block (default 64). The block and its
	// command header must fit a raft entry's 16-bit length field; New
	// refuses a size that does not.
	PayloadBytes int
	// Seed drives elections, the workload mix, and composes with netsim
	// jitter and the fault plan.
	Seed uint64
	// TickInterval is the raft logical-clock period (default 100us);
	// ElectionTicks/HeartbeatTicks follow raft.Config (defaults 10/2).
	TickInterval                  time.Duration
	ElectionTicks, HeartbeatTicks int
	// RestartDelay is how long a crashed node stays down (default 2ms);
	// PartitionFor how long an injected partition lasts (default 3ms).
	RestartDelay, PartitionFor time.Duration
	// ClientTimeout bounds one attempt before the client retries the next
	// group member (default 2ms).
	ClientTimeout time.Duration
	// CompactEvery makes leaders compact their fully replicated prefix
	// every that-many ticks, keeping compactKeepTail entries. No default
	// is applied: 0 means logs are never compacted.
	CompactEvery int
	// Link shapes every fabric link (latency/bandwidth/jitter/queue).
	Link netsim.Config
	// Plan injects faults (net:drop/net:dup plus the raft:crash/raft:part
	// sites of this package).
	Plan *faultinject.Plan

	// ParallelLanes runs the cluster with conservative parallel lanes: one
	// event lane per core, lookahead bounded by the link latency. Results
	// are byte-identical to serial mode. It takes effect only when no
	// fault plan is installed (a plan's seeded draw sequence is defined by
	// the serial event order) and Link.Latency > 0 (the lookahead bound).
	ParallelLanes bool
}

const compactKeepTail = 8

func (c Config) tickInterval() time.Duration {
	if c.TickInterval <= 0 {
		return 100 * time.Microsecond
	}
	return c.TickInterval
}

func (c Config) restartDelay() time.Duration {
	if c.RestartDelay <= 0 {
		return 2 * time.Millisecond
	}
	return c.RestartDelay
}

func (c Config) partitionFor() time.Duration {
	if c.PartitionFor <= 0 {
		return 3 * time.Millisecond
	}
	return c.PartitionFor
}

func (c Config) clientTimeout() time.Duration {
	if c.ClientTimeout <= 0 {
		return 2 * time.Millisecond
	}
	return c.ClientTimeout
}

func (c Config) writePct() int {
	if c.WritePct <= 0 {
		return 70
	}
	return c.WritePct
}

func (c Config) payloadBytes() int {
	if c.PayloadBytes <= 0 {
		return 64
	}
	return c.PayloadBytes
}

// Ack is one acknowledged write as the client observed it: the ground truth
// the post-run lost-write audit replays against every replica.
type Ack struct {
	PG    int
	Index uint64
	LBA   uint64
	Hash  uint32
	At    time.Duration
}

// Cluster owns the machine, fabric, monitor, nodes, and clients of one
// replicated deployment.
type Cluster struct {
	M   *machine.Machine
	Fab *netsim.Fabric
	cfg Config

	mon     *Monitor
	nodes   []*OSD
	clients []*Client
	members [][]int // pg → member node ids
	// osdNames[i] is OSD i's endpoint name, built once: frames are sent by
	// destination name.
	osdNames []string

	stopped bool
	atDone  Stats // Stats() when Run first found every client finished

	// failMu guards failure: tasks on different lanes may fail
	// concurrently inside a parallel window.
	failMu  sync.Mutex
	failure error

	// CrashTimes records when each injected crash fired (recovery-time
	// metric input).
	CrashTimes []time.Duration
}

// New assembles (but does not start) a cluster. One engine core per OSD,
// one for the monitor, one per client.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 || cfg.PGs <= 0 || cfg.RF <= 0 || cfg.RF > cfg.Nodes {
		return nil, fmt.Errorf("cluster: bad shape nodes=%d pgs=%d rf=%d", cfg.Nodes, cfg.PGs, cfg.RF)
	}
	// The longest reply name belongs to the last client.
	if n := (command{Reply: []byte(clientName(cfg.Clients - 1))}).size() + cfg.payloadBytes(); n > maxField {
		return nil, fmt.Errorf("cluster: PayloadBytes %d makes a %d-byte command; a raft entry carries at most %d",
			cfg.payloadBytes(), n, maxField)
	}
	cores := cfg.Nodes + 1 + cfg.Clients
	m := machine.New(cores, nvme.Config{BlockSize: 4096, NumBlocks: 1 << 16})
	c := &Cluster{M: m, cfg: cfg, Fab: netsim.New(m.Eng, cfg.Seed)}
	if cfg.Plan != nil {
		c.Fab.UsePlan(cfg.Plan)
	}
	// The osd/pg map: group i lives on RF consecutive nodes starting at
	// i mod Nodes — the monitor owns and serves it.
	for pg := 0; pg < cfg.PGs; pg++ {
		ms := make([]int, cfg.RF)
		for j := range ms {
			ms[j] = (pg + j) % cfg.Nodes
		}
		c.members = append(c.members, ms)
	}
	// Every endpoint pair that will ever talk gets a link. Clients only
	// talk to the monitor and the OSDs, so client↔client pairs get none:
	// they would only cost memory (at 64 nodes × 1024 clients, ~1.2M links
	// instead of ~140k).
	names := []string{"mon"}
	clientAt := 1 + cfg.Nodes
	for i := 0; i < cfg.Nodes; i++ {
		names = append(names, osdName(i))
	}
	for i := 0; i < cfg.Clients; i++ {
		names = append(names, clientName(i))
	}
	c.osdNames = names[1:clientAt]
	for ai, a := range names {
		for bi, b := range names {
			if a == b {
				continue
			}
			if ai >= clientAt && bi >= clientAt {
				continue
			}
			c.Fab.Connect(a, b, cfg.Link)
		}
	}
	c.mon = newMonitor(c)
	for i := 0; i < cfg.Nodes; i++ {
		p, err := m.Launch(osdName(i),
			aeokern.Partition{Start: uint64(i) << 10, Blocks: 1 << 10, Writable: true},
			aeodriver.Config{})
		if err != nil {
			return nil, fmt.Errorf("cluster: launch %s: %w", osdName(i), err)
		}
		c.nodes = append(c.nodes, newOSD(c, i, p))
	}
	for i := 0; i < cfg.Clients; i++ {
		c.clients = append(c.clients, newClient(c, i))
	}
	// Parallel lanes: one lane per core. Every cross-core interaction in
	// this cluster crosses the fabric, so the minimum link latency bounds
	// the lookahead. A fault plan forces serial execution — its seeded
	// draw sequence is defined by the global serial event order.
	if cfg.ParallelLanes && cfg.Plan == nil && cfg.Link.Latency > 0 {
		for i := 0; i < cores; i++ {
			m.Eng.Core(i).SetLane(m.Eng.NewLane())
		}
		m.Eng.Config = sim.Config{
			ParallelLanes: true,
			Lookahead:     cfg.Link.Latency,
			// Boot runs serially: node startup allocates interrupt
			// vectors and registers uintr threads through shared
			// kernel state whose assignment order must match the
			// serial schedule. Everything binds within the first
			// raft tick.
			ParallelAfter: cfg.tickInterval(),
		}
	}
	return c, nil
}

func osdName(i int) string    { return fmt.Sprintf("osd%d", i) }
func clientName(i int) string { return fmt.Sprintf("client%d", i) }

// Node returns OSD i.
func (c *Cluster) Node(i int) *OSD { return c.nodes[i] }

// Clients returns the workload clients.
func (c *Cluster) Clients() []*Client { return c.clients }

// Monitor returns the map service.
func (c *Cluster) Monitor() *Monitor { return c.mon }

// Members returns pg's member node ids.
func (c *Cluster) Members(pg int) []int { return c.members[pg] }

// Err returns the first internal failure (nil while healthy).
func (c *Cluster) Err() error { return c.failure }

func (c *Cluster) fail(err error) {
	c.failMu.Lock()
	if c.failure == nil {
		c.failure = err
	}
	c.failMu.Unlock()
}

// Start spawns the monitor, every OSD, and every client. The monitor
// announces each placement group to the trace stream first, so the analyzer
// knows every group's replication factor before traffic.
func (c *Cluster) Start() {
	eng := c.M.Eng
	if tr := eng.Tracer; tr != nil {
		for pg := range c.members {
			tr.Emit(eng.Now(), trace.ClusterPG, -1, pg, trace.NoCID, 0, uint64(c.cfg.RF))
		}
	}
	eng.Spawn("mon", eng.Core(c.cfg.Nodes), c.mon.run)
	for i, n := range c.nodes {
		eng.Spawn(osdName(i), eng.Core(i), n.run)
	}
	for i, cl := range c.clients {
		eng.Spawn(clientName(i), eng.Core(c.cfg.Nodes+1+i), cl.run)
	}
}

// Run drives the simulation in slices until every client finished (plus a
// settle period so followers converge), or until the horizon passes.
// Returns the virtual time consumed.
func (c *Cluster) Run(horizon time.Duration) time.Duration {
	eng := c.M.Eng
	settleUntil := time.Duration(-1)
	for {
		now := eng.Run(eng.Now() + time.Millisecond)
		if c.failure != nil {
			break
		}
		if horizon > 0 && now >= horizon {
			c.fail(fmt.Errorf("cluster: horizon %v passed with %d/%d clients done",
				horizon, c.doneClients(), len(c.clients)))
			break
		}
		if c.doneClients() == len(c.clients) {
			if settleUntil < 0 {
				c.atDone = c.Stats()
				// Let commit propagation, re-applies, and compaction drain.
				settleUntil = now + 20*time.Millisecond
			} else if now >= settleUntil {
				break
			}
		}
	}
	c.Stop()
	return eng.Run(eng.Now() + 5*time.Millisecond)
}

func (c *Cluster) doneClients() int {
	n := 0
	for _, cl := range c.clients {
		if cl.done {
			n++
		}
	}
	return n
}

// Stop initiates shutdown of every task (safe to call from outside the
// engine).
func (c *Cluster) Stop() {
	c.M.Eng.Schedule(0, func() {
		c.stopped = true
		c.mon.ep.SignalArrival()
		for _, n := range c.nodes {
			n.ep.SignalArrival()
		}
		for _, cl := range c.clients {
			cl.ep.SignalArrival()
		}
	})
}

// Acks gathers every client-observed write acknowledgement.
func (c *Cluster) Acks() []Ack {
	var out []Ack
	for _, cl := range c.clients {
		out = append(out, cl.acks...)
	}
	return out
}

// VerifyAcks audits that no acknowledged write was lost: every ack's
// (pg, index) must be applied on every live member of the group with the
// acknowledged payload hash, all replicas of a group must agree on every
// applied index, and every block a replica stores must still hash to what
// the write that stored it hashed to when it was applied. Returns the
// violations found (nil = clean).
func (c *Cluster) VerifyAcks() []error {
	var errs []error
	for _, a := range c.Acks() {
		for _, id := range c.members[a.PG] {
			g := c.nodes[id].groups[a.PG]
			if g == nil {
				errs = append(errs, fmt.Errorf("acked write pg=%d idx=%d: node %d has no group", a.PG, a.Index, id))
				continue
			}
			h, ok := g.appliedHash[a.Index]
			if !ok {
				errs = append(errs, fmt.Errorf("acked write pg=%d idx=%d lba=%d lost on node %d (never applied)",
					a.PG, a.Index, a.LBA, id))
				continue
			}
			if h != a.Hash {
				errs = append(errs, fmt.Errorf("acked write pg=%d idx=%d on node %d applied hash %#x, acked %#x",
					a.PG, a.Index, id, h, a.Hash))
			}
		}
	}
	// Replica agreement: every index applied by two members must match.
	for pg, ms := range c.members {
		ref := c.nodes[ms[0]].groups[pg]
		for _, id := range ms[1:] {
			g := c.nodes[id].groups[pg]
			for idx, h := range ref.appliedHash {
				if h2, ok := g.appliedHash[idx]; ok && h2 != h {
					errs = append(errs, fmt.Errorf("pg=%d idx=%d: node %d applied %#x, node %d applied %#x",
						pg, idx, ms[0], h, id, h2))
				}
			}
		}
	}
	// Stored bytes. A follower's blocks alias the frames they arrived in, so
	// a frame recycled while it still backs a block shows up here and
	// nowhere else: the checks above compare hashes taken at apply time.
	for _, n := range c.nodes {
		for _, pg := range n.pgs {
			g := n.groups[pg]
			lbas := make([]uint64, 0, len(g.store))
			for lba := range g.store {
				lbas = append(lbas, lba)
			}
			slices.Sort(lbas)
			for _, lba := range lbas {
				b := g.store[lba]
				if h, want := fnv32(b.data), g.appliedHash[b.index]; h != want {
					errs = append(errs, fmt.Errorf("pg=%d lba=%d on node %d: stored block hashes %#x, its write (idx %d) applied %#x",
						pg, lba, n.id, h, b.index, want))
				}
			}
		}
	}
	return errs
}

// Stats aggregates cluster-wide accounting.
type Stats struct {
	AckedWrites, Reads       uint64
	Timeouts, Retries        uint64
	Crashes, Partitions      uint64
	RaftMsgs, Elections      uint64
	Compactions, TxOverflows uint64
}

// Stats snapshots the cluster's accounting counters.
func (c *Cluster) Stats() Stats {
	var s Stats
	for _, cl := range c.clients {
		s.AckedWrites += uint64(len(cl.acks))
		s.Reads += cl.Reads
		s.Timeouts += cl.Timeouts
		s.Retries += cl.Retries
	}
	for _, n := range c.nodes {
		s.Crashes += n.Crashes
		s.Partitions += n.Partitions
		s.RaftMsgs += n.RaftMsgs
		s.TxOverflows += n.TxOverflows
		s.Compactions += n.Compactions
		for _, g := range n.groups {
			s.Elections += g.raft.Elections
		}
	}
	return s
}

// StatsAtDone returns the accounting as of the 1 ms slice of Run in which
// the last client finished: what the workload cost, without the settle
// period's idle heartbeats. Zero until then.
func (c *Cluster) StatsAtDone() Stats { return c.atDone }

// partition downs node id's links for cfg.PartitionFor: both directions
// when symmetric, only outbound otherwise. The heal is scheduled on the
// engine, so partitions are as deterministic as everything else.
func (c *Cluster) partition(id int, symmetric bool) {
	eng := c.M.Eng
	name := osdName(id)
	var cut []*netsim.Link
	for _, l := range c.Fab.Links() {
		// Link names are "<src>-><dst>": match exact endpoints.
		srcName, dstName := splitLink(l.Name())
		if srcName == name || (symmetric && dstName == name) {
			cut = append(cut, l)
		}
	}
	for _, l := range cut {
		l.SetDown(true)
	}
	c.nodes[id].Partitions++
	eng.ScheduleAt(eng.Now()+c.cfg.partitionFor(), func() {
		for _, l := range cut {
			l.SetDown(false)
		}
	})
}

func splitLink(site string) (src, dst string) {
	for i := 0; i+1 < len(site); i++ {
		if site[i] == '-' && site[i+1] == '>' {
			return site[:i], site[i+2:]
		}
	}
	return site, ""
}
