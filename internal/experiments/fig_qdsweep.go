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

// qdSweepRun measures sustained random-read IOPS at the given queue depth on
// a one-core machine, keeping qd commands outstanding with a sliding window.
// In batched mode, commands are issued qdSweepUnit(qd) at a time through
// SubmitBatch (one doorbell per batch) with CQ interrupt coalescing matched
// to the unit; otherwise one command per doorbell with per-CQE interrupts.
// Returns KIOPS.
func qdSweepRun(qd int, batched bool) (float64, error) {
	return qdSweepRunTraced(qd, batched, nil)
}

// qdSweepRunTraced is qdSweepRun with an optional tracer installed on the
// machine's engine. Tracing consumes no virtual time, so the measured KIOPS
// are identical with tr nil or not.
func qdSweepRunTraced(qd int, batched bool, tr *trace.Tracer) (float64, error) {
	cfg := aeodriver.Config{
		Mode: aeodriver.ModeUserInterrupt,
		// Room for the full window plus the next batch, so admission
		// never stalls the pipeline.
		QueueDepth: 2*qd + 2,
	}
	unit := 1
	if batched {
		unit = qdSweepUnit(qd)
		cfg.Coalesce = nvme.Coalescing{MaxEvents: unit, MaxDelay: 20 * time.Microsecond}
	}
	m := machine.New(1, nvme.Config{BlockSize: qdSweepBlockSize, NumBlocks: qdSweepBlocks})
	defer m.Eng.Shutdown()
	m.Eng.Tracer = tr
	p, err := m.Launch("qdsweep", aeokern.Partition{Start: 0, Blocks: qdSweepBlocks, Writable: true}, cfg)
	if err != nil {
		return 0, err
	}
	var kiops float64
	var rerr error
	m.Eng.Spawn("sweep", m.Eng.Core(0), func(env *sim.Env) {
		if _, err := p.Driver.CreateQP(env); err != nil {
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
			if batched && n > 1 {
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
				for i := 0; i < n; i++ {
					req, err := p.Driver.Submit(env, nvme.OpRead, advance(), 1, make([]byte, qdSweepBlockSize), false)
					if err != nil {
						rerr = err
						return
					}
					fifo = append(fifo, []*aeodriver.Request{req})
				}
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
	})
	m.Eng.Run(0)
	if rerr != nil {
		return 0, rerr
	}
	return kiops, nil
}

// QDSweepTrace runs one batched qdsweep window at the given queue depth
// with tracing enabled and returns the tracer (for Chrome export and
// invariant checking) along with the measured KIOPS.
func QDSweepTrace(qd int) (*trace.Tracer, float64, error) {
	tr := trace.New(1, 1<<17)
	kiops, err := qdSweepRunTraced(qd, true, tr)
	if err != nil {
		return nil, 0, err
	}
	return tr, kiops, nil
}

// QDSweep regenerates the batching/coalescing scaling study: 512B random
// read IOPS vs queue depth, one command per doorbell against batched
// submission + coalesced completion interrupts.
func QDSweep() ([]*report.Table, error) {
	t := &report.Table{
		ID:      "qdsweep",
		Title:   "512B random read IOPS vs queue depth: batched+coalesced vs one command per doorbell",
		Columns: []string{"qd", "one/doorbell (KIOPS)", "batched+coalesced (KIOPS)", "speedup"},
	}
	for _, qd := range []int{1, 2, 4, 8, 16, 32} {
		base, err := qdSweepRun(qd, false)
		if err != nil {
			return nil, err
		}
		fast, err := qdSweepRun(qd, true)
		if err != nil {
			return nil, err
		}
		t.AddRowf(fmt.Sprintf("%d", qd), base, fast, fast/base)
	}
	t.Note("batch unit = min(qd/2, %d), coalescing max-events matched to the unit, max-delay 20us", qdSweepMaxUnit)
	t.Note("one doorbell MMIO + one interrupt per batch amortize the per-command control path")
	return []*report.Table{t}, nil
}
