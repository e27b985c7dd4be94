package experiments

import (
	"fmt"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/aeokern"
	"aeolia/internal/aeomds"
	"aeolia/internal/aeosvc"
	"aeolia/internal/machine"
	"aeolia/internal/netsim"
	"aeolia/internal/nvme"
	"aeolia/internal/report"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
	"aeolia/internal/workload"
)

// MDS-scaling study parameters. Sixteen closed-loop clients replay the
// mdmix metadata-heavy profile (create/stat/rename/unlink/open-read/readdir
// in private directories) against an MGM/FST split, sweeping the metadata
// shard count at two data-node widths. Shard CPU (mdsOpCPU per op) is the
// intended bottleneck: demand from 16 clients saturates one shard, so
// namespace-op throughput must rise with the shard count while
// open-to-first-byte latency holds near the base round trip.
const (
	mdsSeed       = 211
	mdsClients    = 16
	mdsOpsPerCli  = 150
	mdsClientCore = 4 // client tasks share this many cores
	mdsHorizon    = 30 * time.Second
	mdsOpCPU      = 10 * time.Microsecond
	// mdsJournalBound is the most journal images a data node may write
	// per distinct block its commits cover.
	mdsJournalBound = 1.5
)

// mdsLink shapes every fabric link in the study.
var mdsLink = netsim.Config{
	Latency:     5 * time.Microsecond,
	BytesPerSec: 10e9,
	Jitter:      2 * time.Microsecond,
	QueueDepth:  256,
}

func mdsFSTName(i int) string { return fmt.Sprintf("fst%d", i) }

// mdScaleResult is one (shards, dataNodes) cell.
type mdScaleResult struct {
	NsOps   uint64        // namespace (MDS) round trips completed
	Elapsed time.Duration // slowest client's measured span
	OTFB    workload.LatencyRecorder
	Meta    workload.LatencyRecorder
	Svc     *aeomds.Service
	// Block images the data nodes' transactions queued for the journal,
	// and images their commits wrote to it, summed over the nodes.
	JournalQueued, JournalWritten uint64
}

// KOps returns namespace-op throughput in kops/s of virtual time.
func (r *mdScaleResult) KOps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.NsOps) / r.Elapsed.Seconds() / 1e3
}

// mdScaleRun boots one cell: dataNodes aeosvc FSTs on device partitions,
// an aeomds service with the given shard count, and mdsClients closed-loop
// clients replaying the profile. It returns the merged measurement after
// auditing the lease books.
func mdScaleRun(shards, dataNodes int, tr *trace.Tracer) (*mdScaleResult, error) {
	cores := 1 + 2*dataNodes + shards + mdsClientCore
	m := machine.New(cores, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: uint64(dataNodes) << 13})
	defer m.Eng.Shutdown()
	m.Eng.Tracer = tr

	// Data servers first: BuildFS drains the engine, so no server loops
	// may be live yet.
	var fis []*machine.FSInstance
	for i := 0; i < dataNodes; i++ {
		fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{
			Partition: aeokern.Partition{Start: uint64(i) << 13, Blocks: 1 << 13, Writable: true},
			Journals:  8,
		})
		if err != nil {
			return nil, fmt.Errorf("fst %d: %w", i, err)
		}
		fis = append(fis, fi)
	}
	fab := netsim.New(m.Eng, mdsSeed)
	fsts := make([]*aeosvc.Server, dataNodes)
	dataEPs := make([]string, dataNodes)
	for i, fi := range fis {
		fsts[i] = aeosvc.NewServer(fab, m.Kern, fi.Proc.Gate, fi.FS, aeosvc.Config{
			Endpoint: mdsFSTName(i),
		})
		fsts[i].Start(m.Eng.Core(1+2*i), []*sim.Core{m.Eng.Core(2 + 2*i)})
		dataEPs[i] = mdsFSTName(i)
	}
	svc := aeomds.NewService(fab, aeomds.Config{
		Shards: shards, DataNodes: dataNodes, OpCPU: mdsOpCPU,
	})
	shardCores := make([]*sim.Core, shards)
	for i := range shardCores {
		shardCores[i] = m.Eng.Core(1 + 2*dataNodes + i)
	}
	svc.Start(shardCores)
	for i := 0; i < shards; i++ {
		for j := 0; j < shards; j++ {
			if i != j {
				fab.Connect(aeomds.ShardEndpoint(i), aeomds.ShardEndpoint(j), mdsLink)
			}
		}
	}

	profile := workload.MetaProfiles()["mdmix"]
	res := &mdScaleResult{Svc: svc}
	var firstErr error
	remaining := mdsClients
	perCli := make([]*mdScaleResult, mdsClients)
	for i := 0; i < mdsClients; i++ {
		i := i
		c := aeomds.NewClient(fab, aeomds.ClientConfig{
			ID: i, Shards: shards, DataEndpoints: dataEPs,
		})
		ep := aeomds.ClientEndpoint(i)
		for s := 0; s < shards; s++ {
			fab.Connect(ep, aeomds.ShardEndpoint(s), mdsLink)
			fab.Connect(aeomds.ShardEndpoint(s), ep, mdsLink)
		}
		for d := 0; d < dataNodes; d++ {
			fab.Connect(ep, mdsFSTName(d), mdsLink)
			fab.Connect(mdsFSTName(d), ep, mdsLink)
		}
		perCli[i] = &mdScaleResult{}
		core := m.Eng.Core(1 + 2*dataNodes + shards + i%mdsClientCore)
		m.Eng.Spawn(fmt.Sprintf("mdc%d", i), core, func(env *sim.Env) {
			defer func() {
				remaining--
				if remaining == 0 {
					svc.Stop()
					for _, s := range fsts {
						s.Stop()
					}
				}
			}()
			if err := mdsRunClient(env, c, profile, i, perCli[i]); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("client %d: %w", i, err)
			}
		})
	}
	m.Run(mdsHorizon)
	if firstErr != nil {
		return nil, firstErr
	}
	if err := svc.Err(); err != nil {
		return nil, err
	}
	if err := svc.CheckAccounting(); err != nil {
		return nil, err
	}
	for i, s := range fsts {
		if err := s.CheckAccounting(); err != nil {
			return nil, fmt.Errorf("fst %d: %w", i, err)
		}
	}
	for i, fi := range fis {
		t := fi.Trust
		if err := mdsJournalGate(i, t); err != nil {
			return nil, err
		}
		res.JournalQueued += t.JournalImagesQueued
		res.JournalWritten += t.JournalBlocksWritten
	}
	for _, pc := range perCli {
		res.NsOps += pc.NsOps
		if pc.Elapsed > res.Elapsed {
			res.Elapsed = pc.Elapsed
		}
		res.OTFB.Merge(&pc.OTFB)
		res.Meta.Merge(&pc.Meta)
	}
	return res, nil
}

// mdsJournalGate is the journal-economy predicate of one data node: a commit
// writes each block it covers once. A node writing more than
// mdsJournalBound images per distinct block committed has gone back to
// journalling every queued image (4.8 on this workload before the merge
// moved ahead of the write), and every request admitted behind such a
// commit pays for it.
func mdsJournalGate(node int, t *aeofs.TrustLayer) error {
	if float64(t.JournalBlocksWritten) > mdsJournalBound*float64(t.JournalBlocksDistinct) {
		return fmt.Errorf("fst %d: %s, bound %.1f", node, journalEconomy(t), mdsJournalBound)
	}
	return nil
}

// mdsRunClient replays one client's stream: a setup phase (own directory
// plus the profile's pre-created population, written through the data
// path), then the measured closed loop.
func mdsRunClient(env *sim.Env, c *aeomds.Client, p *workload.MetaProfile, id int, out *mdScaleResult) error {
	dir := p.ClientDir(id)
	if err := c.Mkdir(env, dir); err != nil {
		return err
	}
	buf := make([]byte, p.Bytes)
	for i := range buf {
		buf[i] = byte(id + i)
	}
	for i := 0; i < p.SetupFiles; i++ {
		path := fmt.Sprintf("%s/s%d", dir, i)
		if err := c.Open(env, path, true, true); err != nil {
			return err
		}
		if _, err := c.WriteAt(env, path, buf, 0); err != nil {
			return err
		}
		if err := c.Close(env, path); err != nil {
			return err
		}
	}

	metaBefore := c.MetaOps
	start := env.Now()
	rbuf := make([]byte, p.Bytes)
	for _, op := range p.Ops(id, mdsOpsPerCli, mdsSeed) {
		t0 := env.Now()
		switch op.Kind {
		case workload.MetaCreate:
			if err := c.Open(env, op.Path, true, true); err != nil {
				return err
			}
			if _, err := c.WriteAt(env, op.Path, buf, 0); err != nil {
				return err
			}
			if err := c.Close(env, op.Path); err != nil {
				return err
			}
		case workload.MetaOpenRead:
			// Open-to-first-byte: layout fetch plus the first striped
			// read, with no cached lease.
			if err := c.Open(env, op.Path, false, false); err != nil {
				return err
			}
			if _, err := c.ReadAt(env, op.Path, rbuf, 0); err != nil {
				return err
			}
			out.OTFB.Record(env.Now() - t0)
			if err := c.Close(env, op.Path); err != nil {
				return err
			}
		case workload.MetaStat:
			if _, err := c.Stat(env, op.Path); err != nil {
				return err
			}
		case workload.MetaUnlink:
			if err := c.Unlink(env, op.Path); err != nil {
				return err
			}
		case workload.MetaReaddir:
			if _, err := c.Readdir(env, op.Dir); err != nil {
				return err
			}
		case workload.MetaRename:
			if err := c.Rename(env, op.Path, op.Dst); err != nil {
				return err
			}
		}
		out.Meta.Record(env.Now() - t0)
	}
	out.Elapsed = env.Now() - start
	out.NsOps = c.MetaOps - metaBefore
	return nil
}

// mdsShardSweep is the shard-count sweep; the scaling criterion compares its
// ends and must hold by mdsScalingMin at every data-node width.
var mdsShardSweep = []int{1, 2, 4, 8}

const mdsScalingMin = 2.0

// mdsScalingGate checks one data-node width: namespace-op throughput at the
// most shards against the throughput at one.
func mdsScalingGate(dataNodes int, oneShardKOps, mostShardsKOps float64) error {
	if mostShardsKOps < mdsScalingMin*oneShardKOps {
		return fmt.Errorf("fig_mdscale dn=%d: %d shards %.1f kops vs 1 shard %.1f kops, want >= %.0fx",
			dataNodes, mdsShardSweep[len(mdsShardSweep)-1], mostShardsKOps, oneShardKOps, mdsScalingMin)
	}
	return nil
}

// MDScale regenerates the metadata-scaling study: namespace-op throughput
// and open-to-first-byte latency versus MDS shard count and data-node
// width. Throughput rises with shards (the namespace is CPU-bound on the
// metadata path) while OTFB stays near the base round trip — data I/O
// never revisits the MDS after the open returns its layout lease. Every
// data node must pass mdsJournalGate and every width mdsScalingGate, or the
// run is an error.
func MDScale() ([]*report.Table, error) {
	t := &report.Table{
		ID:    "mdscale",
		Title: "MGM/FST split: namespace throughput and open-to-first-byte vs MDS shards",
		Columns: []string{"shards", "dnodes", "ns_kops", "meta_p50_us",
			"meta_p99_us", "otfb_p50_us", "otfb_p99_us"},
	}
	var queued, written uint64
	for _, dn := range []int{2, 4} {
		kops := make([]float64, len(mdsShardSweep))
		for i, shards := range mdsShardSweep {
			r, err := mdScaleRun(shards, dn, nil)
			if err != nil {
				return nil, fmt.Errorf("mdscale %d/%d: %w", shards, dn, err)
			}
			kops[i] = r.KOps()
			queued += r.JournalQueued
			written += r.JournalWritten
			t.AddRowf(fmt.Sprintf("%d", shards), fmt.Sprintf("%d", dn),
				fmt.Sprintf("%.1f", r.KOps()),
				usec(r.Meta.Median()), usec(r.Meta.P99()),
				usec(r.OTFB.Median()), usec(r.OTFB.P99()))
		}
		if err := mdsScalingGate(dn, kops[0], kops[len(kops)-1]); err != nil {
			return nil, err
		}
	}
	t.Note("%d closed-loop clients, mdmix profile, %d metadata ops each; %s MDS CPU per op", mdsClients, mdsOpsPerCli, mdsOpCPU)
	t.Note("otfb = open (layout lease fetch) + first striped read direct from the data servers")
	t.Note("data-node journals: %d block images queued, %d written (%.2f queued per written); a node writing more than %.1f per distinct block committed fails the run",
		queued, written, ratio(queued, written), mdsJournalBound)
	return []*report.Table{t}, nil
}

// mdsTraceGate checks the traced cell: leases were granted and data I/O
// happened, no invariant — lease lifecycle, every data I/O under a live
// layout lease (an uncited one carries lease id NoCID, which is never
// granted: the MDS is off the data path after open), rename visibility
// order — was violated, and the service's lease books agree with the traced
// grant stream.
func mdsTraceGate(c *tracedCell, granted uint64) error {
	if err := c.clean(trace.MDSLeaseGrant, trace.MDSDataIO); err != nil {
		return err
	}
	if grants := c.count(trace.MDSLeaseGrant); granted != grants {
		return fmt.Errorf("%s: lease accounting: books say %d granted, trace says %d", c.name, granted, grants)
	}
	return nil
}

// mdScaleTrace runs the largest cell (most shards, 4 data nodes) with
// tracing on; the cell's own journal gate applies to it too.
func mdScaleTrace() (*Traced, error) {
	tr := trace.New(32, 1<<19)
	shards := mdsShardSweep[len(mdsShardSweep)-1]
	r, err := mdScaleRun(shards, 4, tr)
	if err != nil {
		return nil, err
	}
	c := captured(fmt.Sprintf("fig_mdscale %d shards/4 data nodes", shards), tr)
	return &Traced{
		Events: c.evs,
		Summary: fmt.Sprintf("%.1f ns-kops, otfb p99 %v; leases %d granted / %d released / %d revoked",
			r.KOps(), r.OTFB.P99(), r.Svc.Granted, r.Svc.Released, r.Svc.Revoked),
	}, mdsTraceGate(c, r.Svc.Granted)
}
