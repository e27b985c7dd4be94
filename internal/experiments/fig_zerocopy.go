package experiments

import (
	"fmt"
	"slices"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeofs"
	"aeolia/internal/aeokern"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/report"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
	"aeolia/internal/vfs"
)

// Zero-copy datapath study. Two halves:
//
//  1. Block path: 512B random-read IOPS at fixed queue depth through three
//     submission datapaths — one command per doorbell, batched SQEs with
//     coalesced completion interrupts, and the lock-free zero-copy staging
//     ring (pre-registered buffers, timing.RingPrep/RingComplete per
//     command instead of the SQE-build/completion halves).
//  2. Cache path: per-core cache-hit read throughput of AeoFS as reader
//     cores scale 1→8 on the epoch hit path, which never takes a lock (the
//     locked-hit strawman it replaced is a row of history in DESIGN.md
//     "Forks and verdicts").
const (
	zcBlockSize = 512
	zcBlocks    = 1 << 16
	zcWindow    = 2 * time.Millisecond
	zcQD        = 32

	zcFilePages    = 64
	zcReadsPerCore = 2000
)

// zcCores is the reader-core sweep of the cache half.
var zcCores = []int{1, 2, 4, 8}

// zcDevModel returns the wide device used by the block half: the stock
// P5800X model caps 512B reads at ~1.95 M IOPS (6 channels x ~3.07us), so
// past the batched baseline every datapath saturates flash, not software.
// Quadrupling the internal parallelism (as on a multi-die enterprise part)
// moves the bottleneck back to the submission/completion software path this
// figure is about; bus bandwidth and media latency stay calibrated.
func zcDevModel() nvme.LatencyModel {
	m := nvme.P5800X()
	m.Channels = 24
	return m
}

// zcRingRun measures sustained 512B random-read KIOPS at queue depth qd on
// a one-core machine with the wide device model. mode selects the
// datapath: "one" (one command per doorbell, per-CQE interrupts),
// "batched" (SubmitBatch units with matched coalescing — the prior
// baseline), or "ring" (batched plus the zero-copy staging ring). Also
// returns the ring-staged command count (zero unless mode == "ring").
func zcRingRun(mode string, qd int, tr *trace.Tracer) (float64, uint64, error) {
	cfg := aeodriver.Config{
		Mode:       aeodriver.ModeUserInterrupt,
		QueueDepth: 2*qd + 2,
	}
	unit := 1
	if mode == "batched" || mode == "ring" {
		unit = qdSweepUnit(qd)
		cfg.Coalesce = nvme.Coalescing{MaxEvents: unit, MaxDelay: 20 * time.Microsecond}
	}
	if mode == "ring" {
		cfg.ZeroCopyRing = true
	}
	m := machine.New(1, nvme.Config{BlockSize: zcBlockSize, NumBlocks: zcBlocks, Model: zcDevModel()})
	defer m.Eng.Shutdown()
	m.Eng.Tracer = tr
	p, err := m.Launch("zerocopy", aeokern.Partition{Start: 0, Blocks: zcBlocks, Writable: true}, cfg)
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
		advance := func() uint64 {
			lba := next
			next = (next + 17) % zcBlocks
			return lba
		}
		submitUnit := func() {
			n := min(unit, qd-outstanding)
			if n <= 0 {
				return
			}
			if unit > 1 && n > 1 {
				iov := make([]aeodriver.IOVec, n)
				for i := range iov {
					iov[i] = aeodriver.IOVec{LBA: advance(), Cnt: 1, Buf: make([]byte, zcBlockSize)}
				}
				reqs, err := p.Driver.SubmitBatch(env, nvme.OpRead, iov, false)
				if err != nil {
					rerr = err
					return
				}
				fifo = append(fifo, reqs)
			} else {
				for i := 0; i < n; i++ {
					req, err := p.Driver.Submit(env, nvme.OpRead, advance(), 1, make([]byte, zcBlockSize), false)
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
		deadline := start + zcWindow
		for env.Now() < deadline && rerr == nil {
			for outstanding < qd && rerr == nil {
				submitUnit()
			}
			if rerr != nil || len(fifo) == 0 {
				break
			}
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

// zcCacheResult is one cell of the cache-hit scaling half.
type zcCacheResult struct {
	PerCoreKIOPS float64 // slowest reader's rate (= aggregate / cores at equal work)
	EpochReads   uint64  // reads served by the epoch hit path (CacheStats.FastReads)
}

// zcCacheRun measures cache-hit read throughput with `cores` reader tasks,
// one per core, each issuing zcReadsPerCore single-block reads of a fully
// resident file.
func zcCacheRun(cores int, tr *trace.Tracer) (*zcCacheResult, error) {
	m := machine.New(cores, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 15})
	defer m.Eng.Shutdown()
	m.Eng.Tracer = tr
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{Journals: 8, JournalBlocks: 256})
	if err != nil {
		return nil, err
	}

	var serr error
	m.Eng.Spawn("seed", m.Eng.Core(0), func(env *sim.Env) {
		if init, ok := fi.FS.(vfs.PerThreadInit); ok {
			if err := init.InitThread(env); err != nil {
				serr = err
				return
			}
		}
		fd, err := fi.FS.Open(env, "/zc.dat", vfs.O_CREATE|vfs.O_RDWR)
		if err != nil {
			serr = err
			return
		}
		buf := make([]byte, zcFilePages*aeofs.BlockSize)
		for i := range buf {
			buf[i] = byte(i * 31)
		}
		if _, err := fi.FS.WriteAt(env, fd, buf, 0); err != nil {
			serr = err
			return
		}
		serr = fi.FS.Close(env, fd)
	})
	m.Run(0)
	if serr != nil {
		return nil, serr
	}

	spans := make([]time.Duration, cores)
	errs := make([]error, cores)
	for c := 0; c < cores; c++ {
		c := c
		m.Eng.Spawn(fmt.Sprintf("zc-rd%d", c), m.Eng.Core(c), func(env *sim.Env) {
			if init, ok := fi.FS.(vfs.PerThreadInit); ok {
				if err := init.InitThread(env); err != nil {
					errs[c] = err
					return
				}
			}
			fd, err := fi.FS.Open(env, "/zc.dat", vfs.O_RDONLY)
			if err != nil {
				errs[c] = err
				return
			}
			buf := make([]byte, aeofs.BlockSize)
			start := env.Now()
			for i := 0; i < zcReadsPerCore; i++ {
				off := uint64((i*7+c*13)%zcFilePages) * aeofs.BlockSize
				if _, err := fi.FS.ReadAt(env, fd, buf, off); err != nil {
					errs[c] = err
					return
				}
			}
			spans[c] = env.Now() - start
			errs[c] = fi.FS.Close(env, fd)
		})
	}
	m.Run(0)
	var slowest time.Duration
	for c := 0; c < cores; c++ {
		if errs[c] != nil {
			return nil, fmt.Errorf("reader %d: %w", c, errs[c])
		}
		if spans[c] > slowest {
			slowest = spans[c]
		}
	}
	if slowest <= 0 {
		return nil, fmt.Errorf("zerocopy: empty measurement window")
	}
	return &zcCacheResult{
		PerCoreKIOPS: float64(zcReadsPerCore) / slowest.Seconds() / 1e3,
		EpochReads:   fi.AeoFS.CacheStats().FastReads,
	}, nil
}

// Bounds of the figure's two acceptance criteria.
const (
	zcRingSpeedup = 1.5 // ring over batched+coalesced KIOPS at zcQD
	zcFlatLoss    = 0.1 // per-core KIOPS at the most reader cores may trail one core's by this fraction
)

// zcRingGate checks the block half at one queue depth: the staging ring
// staged commands (it engaged, not a fallback) and at zcQD beats the
// batched baseline by zcRingSpeedup.
func zcRingGate(qd int, batched, ring float64, staged uint64) error {
	if staged == 0 {
		return fmt.Errorf("fig_zerocopy QD%d: ring datapath never staged a command", qd)
	}
	if qd == zcQD && ring < zcRingSpeedup*batched {
		return fmt.Errorf("fig_zerocopy QD%d: ring %.1f KIOPS vs batched %.1f KIOPS, want >= %.1fx", qd, ring, batched, zcRingSpeedup)
	}
	return nil
}

// zcFlatGate checks the cache half: the epoch path served reads at both
// ends of the core sweep and held per-core throughput flat across it.
func zcFlatGate(one, most *zcCacheResult) error {
	if one.EpochReads == 0 || most.EpochReads == 0 {
		return fmt.Errorf("fig_zerocopy: epoch fast-read path never engaged: %d/%d fast reads", one.EpochReads, most.EpochReads)
	}
	if most.PerCoreKIOPS < (1-zcFlatLoss)*one.PerCoreKIOPS {
		return fmt.Errorf("fig_zerocopy: per-core cache-hit throughput not flat: 1 core %.1f, %d cores %.1f KIOPS/core",
			one.PerCoreKIOPS, zcCores[len(zcCores)-1], most.PerCoreKIOPS)
	}
	return nil
}

// FigZerocopy regenerates the zero-copy datapath study: ring vs batched vs
// one-per-doorbell block IOPS on the wide device, and per-core cache-hit
// read throughput 1→8 cores. The halves must pass zcRingGate and
// zcFlatGate, or the run is an error.
func FigZerocopy() ([]*report.Table, error) {
	t1 := &report.Table{
		ID:    "zerocopy_ring",
		Title: "512B random read KIOPS on the wide device: submission datapaths at fixed QD",
		Columns: []string{"qd", "one/doorbell (KIOPS)", "batched+coalesced (KIOPS)",
			"zerocopy ring (KIOPS)", "ring/batched"},
	}
	for _, qd := range []int{8, zcQD} {
		one, _, err := zcRingRun("one", qd, nil)
		if err != nil {
			return nil, err
		}
		batched, _, err := zcRingRun("batched", qd, nil)
		if err != nil {
			return nil, err
		}
		ring, staged, err := zcRingRun("ring", qd, nil)
		if err != nil {
			return nil, err
		}
		if err := zcRingGate(qd, batched, ring, staged); err != nil {
			return nil, err
		}
		t1.AddRowf(fmt.Sprintf("%d", qd), one, batched, ring, ring/batched)
	}
	t1.Note("device: P5800X timing with 24 channels — software, not flash, is the bottleneck past the batched baseline")
	t1.Note("ring: per-command RingPrep/RingComplete replace the SQE build and completion halves (pre-registered slots, lock-free SPSC)")

	t2 := &report.Table{
		ID:      "zerocopy_cache",
		Title:   "Cache-hit read scaling: per-core KIOPS on the epoch hit path",
		Columns: []string{"cores", "KIOPS/core", "scaling efficiency"},
	}
	cells := make([]*zcCacheResult, len(zcCores))
	for i, cores := range zcCores {
		r, err := zcCacheRun(cores, nil)
		if err != nil {
			return nil, err
		}
		cells[i] = r
		t2.AddRowf(fmt.Sprintf("%d", cores), r.PerCoreKIOPS, r.PerCoreKIOPS/cells[0].PerCoreKIOPS)
	}
	if err := zcFlatGate(cells[0], cells[len(cells)-1]); err != nil {
		return nil, err
	}
	t2.Note("%d readers x %d cache-hit reads of a %d-page resident file; per-core = slowest reader's rate", zcCores[len(zcCores)-1], zcReadsPerCore, zcFilePages)
	t2.Note("a hit is the seqlock walk: no budgetMu, range lock or tree lock")
	return []*report.Table{t1, t2}, nil
}

// zcTraceGate checks the two traced cells: both mechanisms engaged, neither
// stream violated an invariant (the announced per-path copy budgets
// included), the cache cell holds the copy and handoff events the budget
// ranges over, and no chain in either cell copied its payload more than
// once end to end.
func zcTraceGate(ring, cache *tracedCell, staged, epochReads uint64) error {
	if staged == 0 {
		return fmt.Errorf("%s: ring datapath never staged a command", ring.name)
	}
	if epochReads == 0 {
		return fmt.Errorf("%s: epoch fast-read path never engaged", cache.name)
	}
	if err := ring.clean(); err != nil {
		return err
	}
	if err := cache.clean(trace.BufCopy, trace.BufHandoff); err != nil {
		return err
	}
	for _, c := range []*tracedCell{ring, cache} {
		if _, _, maxPerChain := c.an.CopyStats(); maxPerChain > 1 {
			return fmt.Errorf("%s: a chain performed %d payload copies — budget is 1 end to end", c.name, maxPerChain)
		}
	}
	return nil
}

// figZerocopyTrace runs the ring cell at zcQD and the 4-core epoch cache
// cell with tracing on — each on its own tracer and analysed apart, since
// the two machines' NVMe queue/command-id namespaces would collide in one
// replay. Events is the ring cell's stream followed by the cache cell's.
func figZerocopyTrace() (*Traced, error) {
	ringTr := trace.New(16, 1<<18)
	kiops, staged, err := zcRingRun("ring", zcQD, ringTr)
	if err != nil {
		return nil, err
	}
	cacheTr := trace.New(16, 1<<18)
	cr, err := zcCacheRun(4, cacheTr)
	if err != nil {
		return nil, err
	}
	ring := captured(fmt.Sprintf("fig_zerocopy ring QD%d", zcQD), ringTr)
	cache := captured("fig_zerocopy cache 4 cores", cacheTr)
	rc, rn, _ := ring.an.CopyStats()
	cc, cn, _ := cache.an.CopyStats()
	return &Traced{
		Events: slices.Concat(ring.evs, cache.evs),
		Summary: fmt.Sprintf("ring %.0f KIOPS at QD%d; cache %.0f KIOPS/core x4 (%d fast reads); %d chains, %d copies",
			kiops, zcQD, cr.PerCoreKIOPS, cr.EpochReads, rc+cc, rn+cn),
	}, zcTraceGate(ring, cache, staged, cr.EpochReads)
}
