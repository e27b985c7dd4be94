package experiments

import (
	"fmt"
	"time"

	"aeolia/internal/cluster"
	"aeolia/internal/faultinject"
	"aeolia/internal/netsim"
	"aeolia/internal/report"
	"aeolia/internal/trace"
	"aeolia/internal/workload"
)

// Replication study parameters. The sweep crosses replication factor 1/3/5
// with three fault regimes on the multi-raft block cluster:
//
//   - clean: ideal fabric, no faults — the replication-cost baseline;
//   - lossy: per-link latency jitter plus seeded frame loss and duplication
//     on every inter-osd link — raft retransmission and client retry absorb
//     the noise;
//   - crash: every node arms a one-shot CrashAndReset at the post-quorum
//     point, so each acting leader crashes right after committing and
//     acknowledging a write — failover and bounded recovery on the critical
//     path.
//
// Every cell must finish its workload with zero lost acknowledged writes
// (the traced gate also demands zero linearizability violations); the table
// reports goodput, write/read latency percentiles, and observed recovery
// time after the last crash.
const (
	replSeed      = 131
	replPGs       = 2
	replClients   = 2
	replOpsPerCli = 30
	replHorizon   = 5 * time.Second
)

var replScenarios = []string{"clean", "lossy", "crash"}

// replLossyLink shapes inter-node links in the lossy cells.
var replLossyLink = netsim.Config{
	Latency:     5 * time.Microsecond,
	BytesPerSec: 10e9,
	Jitter:      2 * time.Microsecond,
	QueueDepth:  256,
}

// replNodes returns the node count for a replication factor: the smallest
// cluster that hosts rf replicas with at least one spare placement.
func replNodes(rf int) int {
	if rf < 3 {
		return 3
	}
	return rf
}

// replConfig builds one cell's cluster configuration.
func replConfig(rf int, scenario string) cluster.Config {
	cfg := cluster.Config{
		Nodes: replNodes(rf), PGs: replPGs, RF: rf,
		Clients: replClients, OpsPerClient: replOpsPerCli,
		Seed: replSeed + uint64(rf)<<8,
	}
	switch scenario {
	case "lossy":
		cfg.Link = replLossyLink
		p := faultinject.NewPlan(replSeed + uint64(rf))
		for i := 0; i < cfg.Nodes; i++ {
			for j := 0; j < cfg.Nodes; j++ {
				if i == j {
					continue
				}
				lnk := fmt.Sprintf("osd%d->osd%d", i, j)
				p.On("net:drop:"+lnk, faultinject.WithProb(0.02, 200))
				p.On("net:dup:"+lnk, faultinject.WithProb(0.02, 200))
			}
		}
		cfg.Plan = p
	case "crash":
		p := faultinject.NewPlan(replSeed + uint64(rf))
		for i := 0; i < cfg.Nodes; i++ {
			cluster.CrashAndReset(p, cluster.PointPostQuorum, i)
		}
		cfg.Plan = p
	}
	return cfg
}

// replCellResult is one measured (rf, scenario) cell.
type replCellResult struct {
	C        *cluster.Cluster
	Stats    cluster.Stats
	Elapsed  time.Duration
	WriteLat workload.LatencyRecorder
	ReadLat  workload.LatencyRecorder
	// Recovery is the worst observed crash-to-next-ack gap (0 when the
	// cell injects no crashes).
	Recovery time.Duration
	// LostWrites counts acked writes the post-run audit could not find on
	// every replica — always zero in an accepted run.
	LostWrites int
	// RaftMsgsPerOp is the raft frames the nodes received while the
	// workload ran — elections and heartbeats included, the settle period's
	// idle heartbeats not — per completed operation. Replicating one entry
	// takes an append and an acknowledgement per follower: 2*(RF-1).
	RaftMsgsPerOp float64
}

// replRun executes one cell; tr (optional) captures the full event trace.
func replRun(rf int, scenario string, tr *trace.Tracer) (*replCellResult, error) {
	cfg := replConfig(rf, scenario)
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("fig_replication rf=%d %s: %w", rf, scenario, err)
	}
	if tr != nil {
		c.M.Eng.Tracer = tr
	}
	c.Start()
	elapsed := c.Run(replHorizon)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("fig_replication rf=%d %s: %w", rf, scenario, err)
	}
	out := &replCellResult{C: c, Stats: c.Stats(), Elapsed: elapsed}
	if ops := out.Stats.AckedWrites + out.Stats.Reads; ops > 0 {
		out.RaftMsgsPerOp = float64(c.StatsAtDone().RaftMsgs) / float64(ops)
	}
	for _, cl := range c.Clients() {
		for _, d := range cl.WriteLat {
			out.WriteLat.Record(d)
		}
		for _, d := range cl.ReadLat {
			out.ReadLat.Record(d)
		}
	}
	out.LostWrites = len(c.VerifyAcks())
	// Recovery: for every crash, the gap to the first acknowledgement that
	// landed after it; report the worst.
	for _, crashAt := range c.CrashTimes {
		first := time.Duration(-1)
		for _, a := range c.Acks() {
			if a.At > crashAt && (first < 0 || a.At < first) {
				first = a.At
			}
		}
		if first >= 0 && first-crashAt > out.Recovery {
			out.Recovery = first - crashAt
		}
	}
	return out, nil
}

// replGate is the message-economy predicate of one cell: no frame may be
// lost to a full link queue, and on a clean fabric an op costs its 2*(RF-1)
// frames plus at most one of election and heartbeat overhead.
func replGate(rf int, scenario string, txOverflows uint64, raftMsgsPerOp float64) error {
	if txOverflows != 0 {
		return fmt.Errorf("fig_replication rf=%d %s: %d link overflow(s)", rf, scenario, txOverflows)
	}
	if max := float64(2*(rf-1) + 1); scenario == "clean" && raftMsgsPerOp > max {
		return fmt.Errorf("fig_replication rf=%d clean: %.2f raft frames per op, bound %.0f", rf, raftMsgsPerOp, max)
	}
	return nil
}

// FigReplication regenerates the replication study: goodput and latency of
// the multi-raft block cluster across replication factors 1/3/5 under a
// clean fabric, a lossy jittery fabric, and repeated leader crashes. Every
// cell must pass replGate, or the run is an error.
func FigReplication() ([]*report.Table, error) {
	t := &report.Table{
		ID:    "fig_replication",
		Title: "Replicated block cluster: goodput and latency vs replication factor under faults",
		Columns: []string{"rf", "scenario", "acked_writes", "reads", "lost",
			"goodput_ops_ms", "wr_p50_us", "wr_p99_us", "rd_p50_us", "rd_p99_us",
			"retries", "elections", "crashes", "recovery_ms", "raft_msgs_per_op"},
	}
	for _, rf := range []int{1, 3, 5} {
		for _, scenario := range replScenarios {
			r, err := replRun(rf, scenario, nil)
			if err != nil {
				return nil, err
			}
			s := r.Stats
			if err := replGate(rf, scenario, s.TxOverflows, r.RaftMsgsPerOp); err != nil {
				return nil, err
			}
			ops := float64(s.AckedWrites + s.Reads)
			goodput := ops / (float64(r.Elapsed) / float64(time.Millisecond))
			recovery := "-"
			if len(r.C.CrashTimes) > 0 {
				recovery = fmt.Sprintf("%.2f", float64(r.Recovery)/float64(time.Millisecond))
			}
			t.AddRowf(
				fmt.Sprintf("%d", rf), scenario,
				fmt.Sprintf("%d", s.AckedWrites),
				fmt.Sprintf("%d", s.Reads),
				fmt.Sprintf("%d", r.LostWrites),
				fmt.Sprintf("%.3f", goodput),
				usec(r.WriteLat.Percentile(50)),
				usec(r.WriteLat.Percentile(99)),
				usec(r.ReadLat.Percentile(50)),
				usec(r.ReadLat.Percentile(99)),
				fmt.Sprintf("%d", s.Retries),
				fmt.Sprintf("%d", s.Elections),
				fmt.Sprintf("%d", s.Crashes),
				recovery,
				fmt.Sprintf("%.2f", r.RaftMsgsPerOp))
		}
	}
	t.Note("lossy = 2us link jitter + 2%% seeded loss and duplication on every inter-osd link")
	t.Note("crash = one-shot CrashAndReset armed at post-quorum on every node (each acting leader crashes after its first committed ack)")
	t.Note("lost = acked writes missing or divergent on any replica in the post-run audit (must be 0)")
	t.Note("raft frames ride the urgent uintr class; client frames the normal class")
	t.Note("raft_msgs_per_op = raft frames received until the last client finished (elections and heartbeats included) per op; the floor is 2*(rf-1), and a clean cell above floor+1 or any link overflow fails the run")
	return []*report.Table{t}, nil
}

// replTraceGate checks the traced cell: it measured something adversarial
// (crashes fired, writes were still acknowledged, a recovery gap was
// observed), no linearizability invariant — commit monotonicity, no
// divergent committed entries, no acknowledgement before quorum, no stale
// read after an acknowledged write — was violated, and the post-run audit
// (lost) found every acknowledged write intact on every replica.
func replTraceGate(c *tracedCell, crashes, ackedWrites uint64, recovery time.Duration, lost []error) error {
	if crashes == 0 {
		return fmt.Errorf("%s: no crash fired — the cell measured nothing adversarial", c.name)
	}
	if ackedWrites == 0 {
		return fmt.Errorf("%s: no writes acknowledged", c.name)
	}
	if recovery == 0 {
		return fmt.Errorf("%s: no recovery time observed despite %d crashes", c.name, crashes)
	}
	if err := c.clean(); err != nil {
		return err
	}
	if len(lost) != 0 {
		return fmt.Errorf("%s: %d lost or divergent acked write(s): %v", c.name, len(lost), lost)
	}
	return nil
}

// figReplicationTrace runs the rf=3 crash cell — replication, failover and
// recovery all live — with tracing on.
func figReplicationTrace() (*Traced, error) {
	cfg := replConfig(3, "crash")
	tr := trace.New(cfg.Nodes+1+cfg.Clients, 1<<19)
	r, err := replRun(3, "crash", tr)
	if err != nil {
		return nil, err
	}
	c := captured("fig_replication rf=3 crash", tr)
	return &Traced{
		Events: c.evs,
		Summary: fmt.Sprintf("%d acked writes, %d crashes, %d elections, worst recovery %v",
			r.Stats.AckedWrites, r.Stats.Crashes, r.Stats.Elections, r.Recovery),
	}, replTraceGate(c, r.Stats.Crashes, r.Stats.AckedWrites, r.Recovery, r.C.VerifyAcks())
}
