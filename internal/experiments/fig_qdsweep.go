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
	"aeolia/internal/trace"
)

// QD-sweep parameters. 512B commands keep the device's per-command service
// time low enough that the submission software path — not the flash — is
// the bottleneck, which is exactly the regime batching and coalescing target
// (ROADMAP north star: "as fast as the hardware allows").
const (
	qdSweepBlockSize = 512
	qdSweepBlocks    = 1 << 16
	qdSweepWindow    = 2 * time.Millisecond
	// qdSweepMaxUnit bounds the batch unit and the coalescing threshold
	// (mirrors real NVMe aggregation bursts of ~8).
	qdSweepMaxUnit = 8
)

// qdSweepUnit is the submission batch unit for a given queue depth: half
// the window (so at least two batches stay in flight and submission
// pipelines against completion instead of convoying), capped at
// qdSweepMaxUnit.
func qdSweepUnit(qd int) int { return min(max(qd/2, 1), qdSweepMaxUnit) }

// blockPath is a block cell's submission datapath.
type blockPath int

const (
	// pathOne issues one command per doorbell with per-CQE interrupts.
	pathOne blockPath = iota
	// pathBatched issues qdSweepUnit(qd) commands per SubmitBatch (one
	// doorbell per batch) with CQ interrupt coalescing matched to the unit.
	pathBatched
	// pathRing is pathBatched through the zero-copy staging ring
	// (aeodriver.Config.ZeroCopyRing).
	pathRing
)

// qdSweepRun measures sustained 512B random-read KIOPS at queue depth qd on
// a one-core machine whose device has latency model dev (zero: the stock
// P5800X), keeping qd commands outstanding with a sliding window through
// path. It also returns the ring-staged command count (zero unless path is
// pathRing). A non-nil tracer is installed on the machine's engine; tracing
// consumes no virtual time, so the measured KIOPS are identical with or
// without one. qdsweep and fig_zerocopy's block half are both this cell.
func qdSweepRun(dev nvme.LatencyModel, qd int, path blockPath, tr *trace.Tracer) (float64, uint64, error) {
	cfg := aeodriver.Config{
		Mode: aeodriver.ModeUserInterrupt,
		// Room for the full window plus the next batch, so admission
		// never stalls the pipeline.
		QueueDepth:   2*qd + 2,
		ZeroCopyRing: path == pathRing,
	}
	unit := 1
	if path != pathOne {
		unit = qdSweepUnit(qd)
		cfg.Coalesce = nvme.Coalescing{MaxEvents: unit, MaxDelay: 20 * time.Microsecond}
	}
	m := machine.New(1, nvme.Config{BlockSize: qdSweepBlockSize, NumBlocks: qdSweepBlocks, Model: dev})
	defer m.Eng.Shutdown()
	m.Eng.Tracer = tr
	p, err := m.Launch("qdsweep", aeokern.Partition{Start: 0, Blocks: qdSweepBlocks, Writable: true}, cfg)
	if err != nil {
		return 0, 0, err
	}
	var kiops float64
	var staged uint64
	var rerr error
	m.Eng.Spawn("sweep", m.Eng.Core(0), func(env *sim.Env) {
		th, err := p.Driver.CreateQP(env)
		if err != nil {
			rerr = err
			return
		}
		var (
			fifo        [][]*aeodriver.Request
			next        uint64
			outstanding int
			ops         uint64
		)
		// 17 is coprime with the block count, so the cursor visits every
		// LBA before repeating (deterministic pseudo-random access).
		advance := func() uint64 {
			lba := next
			next = (next + 17) % qdSweepBlocks
			return lba
		}
		submitUnit := func() {
			n := min(unit, qd-outstanding)
			if n <= 0 {
				return
			}
			if n > 1 {
				iov := make([]aeodriver.IOVec, n)
				for i := range iov {
					iov[i] = aeodriver.IOVec{LBA: advance(), Cnt: 1, Buf: make([]byte, qdSweepBlockSize)}
				}
				reqs, err := p.Driver.SubmitBatch(env, nvme.OpRead, iov, false)
				if err != nil {
					rerr = err
					return
				}
				fifo = append(fifo, reqs)
			} else {
				req, err := p.Driver.Submit(env, nvme.OpRead, advance(), 1, make([]byte, qdSweepBlockSize), false)
				if err != nil {
					rerr = err
					return
				}
				fifo = append(fifo, []*aeodriver.Request{req})
			}
			outstanding += n
		}
		start := env.Now()
		deadline := start + qdSweepWindow
		for env.Now() < deadline && rerr == nil {
			for outstanding < qd && rerr == nil {
				submitUnit()
			}
			if rerr != nil || len(fifo) == 0 {
				break
			}
			// Wait for the oldest batch only: the rest of the window
			// stays in flight, pipelining submission against the
			// device (no convoy barrier).
			b := fifo[0]
			fifo = fifo[1:]
			if err := p.Driver.WaitAll(env, b); err != nil {
				rerr = err
				return
			}
			outstanding -= len(b)
			ops += uint64(len(b))
		}
		for _, b := range fifo {
			if err := p.Driver.WaitAll(env, b); err != nil {
				rerr = err
				return
			}
			ops += uint64(len(b))
		}
		if span := env.Now() - start; span > 0 {
			kiops = float64(ops) / span.Seconds() / 1e3
		}
		staged = th.RingStaged
	})
	m.Eng.Run(0)
	if rerr != nil {
		return 0, 0, rerr
	}
	return kiops, staged, nil
}

// qdGateDepth and qdGateSpeedup are the sweep's acceptance criterion: at
// this queue depth the batched+coalesced path must sustain at least this
// multiple of the one-command-per-doorbell path's IOPS.
const (
	qdGateDepth   = 32
	qdGateSpeedup = 2.0
)

// qdGate checks one queue depth's pair of cells against the criterion.
func qdGate(qd int, base, fast float64) error {
	if qd == qdGateDepth && fast < qdGateSpeedup*base {
		return fmt.Errorf("qdsweep QD%d: batched+coalesced %.1f KIOPS vs one/doorbell %.1f KIOPS: speedup %.2fx, bound %.1fx",
			qd, fast, base, fast/base, qdGateSpeedup)
	}
	return nil
}

// QDSweep regenerates the batching/coalescing scaling study: 512B random
// read IOPS vs queue depth, one command per doorbell against batched
// submission + coalesced completion interrupts. The QD32 pair must pass
// qdGate, or the run is an error.
func QDSweep() ([]*report.Table, error) {
	t := &report.Table{
		ID:      "qdsweep",
		Title:   "512B random read IOPS vs queue depth: batched+coalesced vs one command per doorbell",
		Columns: []string{"qd", "one/doorbell (KIOPS)", "batched+coalesced (KIOPS)", "speedup"},
	}
	for _, qd := range []int{1, 2, 4, 8, 16, 32} {
		base, _, err := qdSweepRun(nvme.LatencyModel{}, qd, pathOne, nil)
		if err != nil {
			return nil, err
		}
		fast, _, err := qdSweepRun(nvme.LatencyModel{}, qd, pathBatched, nil)
		if err != nil {
			return nil, err
		}
		if err := qdGate(qd, base, fast); err != nil {
			return nil, err
		}
		t.AddRowf(fmt.Sprintf("%d", qd), base, fast, fast/base)
	}
	t.Note("batch unit = min(qd/2, %d), coalescing max-events matched to the unit, max-delay 20us", qdSweepMaxUnit)
	t.Note("one doorbell MMIO + one interrupt per batch amortize the per-command control path")
	return []*report.Table{t}, nil
}

// qdTraceGate checks the traced window: every command the workload issued
// left a complete causal chain whose completion was consumed inside the
// user-interrupt handler (batched doorbells, coalescing and UINTR delivery
// at full depth), and the per-stage histograms account for every chain.
func qdTraceGate(c *tracedCell, kiops float64) error {
	if kiops <= 0 {
		return fmt.Errorf("%s: traced run reported %.1f KIOPS", c.name, kiops)
	}
	if err := c.clean(); err != nil {
		return err
	}
	if len(c.an.Chains) == 0 {
		return fmt.Errorf("%s: no causal chains reconstructed", c.name)
	}
	for _, ch := range c.an.Chains {
		if !ch.Complete() {
			return fmt.Errorf("%s: incomplete chain qid=%d cid=%d: %+v", c.name, ch.QID, ch.CID, *ch)
		}
		if !ch.Delivered() {
			return fmt.Errorf("%s: chain qid=%d cid=%d consumed outside the handler path", c.name, ch.QID, ch.CID)
		}
	}
	hs := c.an.StageHistograms()
	if got := hs[trace.StageEndToEnd].Count(); got != uint64(len(c.an.Chains)) {
		return fmt.Errorf("%s: end-to-end histogram holds %d samples for %d chains", c.name, got, len(c.an.Chains))
	}
	if hs[trace.StageDevice].Percentile(50) <= 0 {
		return fmt.Errorf("%s: device stage p50 is not positive", c.name)
	}
	return nil
}

// qdSweepTrace runs one batched window at the gate's queue depth with
// tracing on and reports the per-stage latency table the analyzer
// reconstructed from the stream.
func qdSweepTrace() (*Traced, error) {
	tr := trace.New(1, 1<<17)
	kiops, _, err := qdSweepRun(nvme.LatencyModel{}, qdGateDepth, pathBatched, tr)
	if err != nil {
		return nil, err
	}
	c := captured(fmt.Sprintf("qdsweep QD%d batched", qdGateDepth), tr)
	stages := c.an.LatencyTable()
	stages.ID = "qdsweep_stages"
	return &Traced{
		Events:  c.evs,
		Tables:  []*report.Table{stages},
		Summary: fmt.Sprintf("%.0f KIOPS, %d chains", kiops, len(c.an.Chains)),
	}, qdTraceGate(c, kiops)
}
