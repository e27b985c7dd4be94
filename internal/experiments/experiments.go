// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 and §9) on the simulated testbed. Each experiment is one
// registry entry that owns its sweep, its acceptance predicate and its traced
// cell; cmd/aeobench, TestFigures and CI are each one loop over the registry.
// Workload sizes are scaled down from the paper's 128-core/hours-long runs;
// the DESIGN.md per-experiment index records the mapping.
package experiments

import (
	"fmt"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeokern"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/report"
	"aeolia/internal/sim"
	"aeolia/internal/stackmodel"
	"aeolia/internal/trace"
	"aeolia/internal/workload"
)

// Experiment regenerates one paper artifact and decides whether it holds.
type Experiment struct {
	ID    string
	Title string
	// Run regenerates the tables. It fails when a cell cannot run or when
	// the figure's acceptance predicate does not hold over the cells the
	// sweep computed.
	Run func() ([]*report.Table, error)
	// Trace, nil for a figure without one, replays the figure's traced
	// cell(s) and checks the event stream against everything the figure
	// claims of it. A failed check still returns what was traced.
	Trace func() (*Traced, error)
}

// Traced is what a figure's traced cell produced.
type Traced struct {
	Events  []trace.Event   // the stream, for Chrome export
	Tables  []*report.Table // per-stage latencies or counters, if the figure has any
	Summary string          // one line, beyond the event count
}

// All returns the experiment registry in paper order.
func All() []*Experiment {
	return []*Experiment{
		{"fig2", "Average access latency of a 4KB read request", Fig2, nil},
		{"fig3", "Overhead breakdown of a 4KB read access", Fig3, nil},
		{"fig4", "Interrupt overhead breakdown (wakeup path)", Fig4, nil},
		{"fig5", "Performance when multiple tasks share a core", Fig5, nil},
		{"fig10", "Single-thread performance of storage subsystems", Fig10, nil},
		{"fig11", "Multi-thread performance of storage subsystems", Fig11, nil},
		{"fig12", "I/O-intensive and compute-intensive task co-run", Fig12, nil},
		{"fig13", "Latency-task and throughput-task co-run", Fig13, nil},
		{"fig14", "Single-thread performance of evaluated file systems", Fig14, nil},
		{"fig15", "Multi-thread performance of evaluated file systems", Fig15, nil},
		{"fig16", "Metadata scalability of evaluated file systems (FXMARK)", Fig16, nil},
		{"fig17", "Aeolia breakdown (+poll / +k_yield / +k_intr)", Fig17, nil},
		{"fig18", "Filebench results", Fig18, nil},
		{"fig19", "Filebench results under uFS setups", Fig19, nil},
		{"tab6", "Performance when two instances update the same file/dir", Tab6, nil},
		{"tab8", "LevelDB throughput (db_bench)", Tab8, nil},
		{"abl1", "Ablation: eager integrity checking cost", AblTrust, nil},
		{"abl2", "Ablation: per-thread vs single journal region", AblJournal, nil},
		{"qdsweep", "Batched submission + interrupt coalescing QD sweep", QDSweep, qdSweepTrace},
		{"svcscale", "Service client scaling with/without admission control", SvcScale, svcScaleTrace},
		{"fig_cache", "Page-cache budget/read-ahead sweep (throughput, tails, hit rate)", FigCache, figCacheTrace},
		{"fig_slo", "Per-tenant tail latency under antagonists, SLO enforcement off/on", FigSlo, figSloTrace},
		{"fig_replication", "Replicated multi-raft block cluster: goodput/latency vs replication factor under faults", FigReplication, figReplicationTrace},
		{"fig_simscale", "Simulator scale: 64-node/1024-client cluster, serial vs parallel lanes", FigSimScale, nil},
		{"fig_mdscale", "MGM/FST metadata/data split: namespace throughput vs MDS shard count", MDScale, mdScaleTrace},
		{"fig_zerocopy", "Zero-copy datapath: ring vs batched block IOPS; locked vs epoch cache-hit read scaling", FigZerocopy, figZerocopyTrace},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// ---- shared plumbing -----------------------------------------------------

// stackNames is the storage-subsystem lineup.
var stackNames = []string{"posix", "iou_dfl", "iou_opt", "iou_poll", "spdk", "aeolia"}

// blockDev returns the standard device config for block-level figures.
func blockDev(blockSize int) nvme.Config {
	return nvme.Config{BlockSize: blockSize, NumBlocks: 1 << 20}
}

// newBlockIO builds the named stack on machine m.
func newBlockIO(m *machine.Machine, name string) (workload.BlockIO, error) {
	switch name {
	case "aeolia":
		p, err := m.Launch("fio-aeolia", aeokern.Partition{Start: 0, Blocks: m.Dev.NumBlocks(), Writable: true},
			aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
		if err != nil {
			return nil, err
		}
		return &workload.DriverIO{Driver: p.Driver}, nil
	case "posix":
		return &workload.StackIO{Stack: stackmodel.New(m.Kern, stackmodel.POSIX)}, nil
	case "iou_dfl":
		return &workload.StackIO{Stack: stackmodel.New(m.Kern, stackmodel.IOUDfl)}, nil
	case "iou_opt":
		return &workload.StackIO{Stack: stackmodel.New(m.Kern, stackmodel.IOUOpt)}, nil
	case "iou_poll":
		return &workload.StackIO{Stack: stackmodel.New(m.Kern, stackmodel.IOUPoll)}, nil
	case "spdk":
		return &workload.StackIO{Stack: stackmodel.New(m.Kern, stackmodel.SPDK)}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown stack %q", name)
	}
}

// usec renders a duration in microseconds.
func usec(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Microsecond))
}

// runFioSingle runs a single-task fio job on a fresh 1-core machine and
// returns the result.
func runFioSingle(stack string, write bool, ioBytes, blockSize, ops int) (*workload.Result, error) {
	m := machine.New(1, blockDev(blockSize))
	defer m.Eng.Shutdown()
	io, err := newBlockIO(m, stack)
	if err != nil {
		return nil, err
	}
	job := &workload.FioJob{
		Name: stack, IO: io, Write: write, Pattern: workload.PatternRand,
		BlockSizeBytes: ioBytes, BlockBytes: blockSize,
		Start: 0, Span: m.Dev.NumBlocks() / 2, Ops: ops, Seed: 7,
	}
	var res *workload.Result
	var rerr error
	m.Eng.Spawn("fio", m.Eng.Core(0), func(env *sim.Env) {
		res, rerr = job.Run(env)
	})
	m.Eng.Run(0)
	if rerr != nil {
		return nil, rerr
	}
	return res, nil
}
