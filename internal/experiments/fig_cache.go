package experiments

import (
	"fmt"

	"aeolia/internal/aeofs"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/report"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
	"aeolia/internal/workload"
)

// Page-cache study parameters: one 4 MiB file driven from core 0 of a
// 2-core machine (the background flusher runs on core 1), swept over a
// range of residency budgets with read-ahead off and on. The file is
// written and dropped from the cache before the measured phase, so every
// cell starts cold.
const (
	fcSeed      = 11
	fcBlocks    = 1 << 15
	fcFileBytes = 4 << 20
	fcSeqChunk  = 16 << 10
	fcSeqPasses = 2
	fcRandOps   = 2048
	fcMixedOps  = 2048
)

// fcCacheSizes is the residency-budget sweep (all smaller than the file,
// so the CLOCK hand works for a living).
var fcCacheSizes = []uint64{512 << 10, 1 << 20, 2 << 20}

// fcDefaultCache is the budget the traced cell runs at and the sequential
// read-ahead speedup must reach fcSeqSpeedup at.
const fcDefaultCache = uint64(1 << 20)

// Bounds of fcGate, which read-ahead must pass to stay the mount default:
// what sequential reads must gain, what reads that are not sequential may
// lose, and how much of what is issued may be evicted unread.
const (
	fcSeqSpeedup    = 2.0  // seqread on/off at fcDefaultCache
	fcSeqSpeedupMin = 1.5  // seqread on/off at every budget
	fcNonSeqLoss    = 0.01 // randread, mixed: on may trail off by this fraction
	fcSeqWasteMax   = 0.40 // seqread: ReadaheadWaste / ReadaheadIssued
)

// fcGate checks one (workload, budget) pair of cells against the bounds
// above.
func fcGate(pattern string, cacheBytes uint64, off, on *fcResult) error {
	ratio := on.Res.MBps() / off.Res.MBps()
	cell := fmt.Sprintf("fig_cache %s/%d KiB", pattern, cacheBytes>>10)
	if pattern != "seqread" {
		if ratio < 1-fcNonSeqLoss {
			return fmt.Errorf("%s: read-ahead on runs at %.3fx of off, bound %.2fx", cell, ratio, 1-fcNonSeqLoss)
		}
		return nil
	}
	want := fcSeqSpeedupMin
	if cacheBytes == fcDefaultCache {
		want = fcSeqSpeedup
	}
	if ratio < want {
		return fmt.Errorf("%s: read-ahead speedup %.2fx (on %.1f MB/s, off %.1f MB/s), bound %.1fx",
			cell, ratio, on.Res.MBps(), off.Res.MBps(), want)
	}
	issued, waste := on.Stats.ReadaheadIssued, on.Stats.ReadaheadWaste
	if issued == 0 || on.Stats.ReadaheadHits == 0 {
		return fmt.Errorf("%s: %d pages issued, %d hit: the window never engaged", cell, issued, on.Stats.ReadaheadHits)
	}
	if float64(waste) > fcSeqWasteMax*float64(issued) {
		return fmt.Errorf("%s: %d of %d read-ahead pages evicted unread, bound %.0f%%", cell, waste, issued, 100*fcSeqWasteMax)
	}
	return nil
}

// fcConfig builds the cache configuration for one cell. "on" is the mount's
// default; "off" is this figure's baseline, the synchronous demand-fetch
// configuration the default is measured against — the one caller of the
// negative MaxReadahead (DESIGN.md §17).
func fcConfig(cacheBytes uint64, ra bool) aeofs.CacheConfig {
	cfg := aeofs.CacheConfig{
		CacheBytes:  cacheBytes,
		FlusherCore: 1,
	}
	if !ra {
		cfg.MaxReadahead = -1
	}
	return cfg
}

// fcResult is one (workload, cache size, read-ahead) cell.
type fcResult struct {
	Res   *workload.Result
	Stats aeofs.CacheStats // measured-phase deltas, HWM/resident absolute
}

// figCacheRun boots a machine, builds AeoFS with the cell's cache
// configuration, writes the working file, drops the cache, and drives the
// named access pattern from core 0. A non-nil tracer captures the stream.
func figCacheRun(pattern string, cacheBytes uint64, ra bool, tr *trace.Tracer) (*fcResult, error) {
	m := machine.New(2, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: fcBlocks})
	defer m.Eng.Shutdown()
	m.Eng.Tracer = tr
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{Cache: fcConfig(cacheBytes, ra)})
	if err != nil {
		return nil, err
	}
	fs := fi.AeoFS

	out := &fcResult{Res: &workload.Result{Name: pattern}}
	var rerr error
	m.Eng.Spawn("fig-cache", m.Eng.Core(0), func(env *sim.Env) {
		rerr = func() error {
			if _, err := fs.Driver().CreateQP(env); err != nil {
				return err
			}
			fd, err := fs.Open(env, "/bench", aeofs.O_CREATE|aeofs.O_RDWR)
			if err != nil {
				return err
			}
			defer fs.Close(env, fd)

			// Setup: materialize the file and push it out of the cache
			// so the measured phase starts cold.
			chunk := make([]byte, 64<<10)
			for off := uint64(0); off < fcFileBytes; off += uint64(len(chunk)) {
				x := splitmix64(fcSeed ^ off)
				for i := range chunk {
					if i%8 == 0 {
						x = splitmix64(x)
					}
					chunk[i] = byte(x >> (8 * uint(i%8)))
				}
				if _, err := fs.WriteAt(env, fd, chunk, off); err != nil {
					return err
				}
			}
			if err := fs.Fsync(env, fd); err != nil {
				return err
			}
			if err := fs.DropCaches(env); err != nil {
				return err
			}
			before := fs.CacheStats()

			start := env.Now()
			switch pattern {
			case "seqread":
				buf := make([]byte, fcSeqChunk)
				for pass := 0; pass < fcSeqPasses; pass++ {
					if pass > 0 {
						// Each pass restarts the stream cold.
						if err := fs.DropCaches(env); err != nil {
							return err
						}
					}
					for off := uint64(0); off < fcFileBytes; off += fcSeqChunk {
						opStart := env.Now()
						if _, err := fs.ReadAt(env, fd, buf, off); err != nil {
							return err
						}
						out.Res.Ops++
						out.Res.Bytes += fcSeqChunk
						out.Res.Latency.Record(env.Now() - opStart)
					}
				}
			case "randread":
				buf := make([]byte, aeofs.BlockSize)
				x := uint64(fcSeed)
				for i := 0; i < fcRandOps; i++ {
					x = splitmix64(x)
					off := (x % (fcFileBytes / aeofs.BlockSize)) * aeofs.BlockSize
					opStart := env.Now()
					if _, err := fs.ReadAt(env, fd, buf, off); err != nil {
						return err
					}
					out.Res.Ops++
					out.Res.Bytes += aeofs.BlockSize
					out.Res.Latency.Record(env.Now() - opStart)
				}
			case "mixed":
				buf := make([]byte, aeofs.BlockSize)
				x := uint64(fcSeed)
				for i := 0; i < fcMixedOps; i++ {
					x = splitmix64(x)
					off := (x % (fcFileBytes / aeofs.BlockSize)) * aeofs.BlockSize
					x = splitmix64(x)
					opStart := env.Now()
					if x%10 < 7 {
						if _, err := fs.ReadAt(env, fd, buf, off); err != nil {
							return err
						}
					} else {
						if _, err := fs.WriteAt(env, fd, buf, off); err != nil {
							return err
						}
					}
					out.Res.Ops++
					out.Res.Bytes += aeofs.BlockSize
					out.Res.Latency.Record(env.Now() - opStart)
				}
				// The dirty tail is part of the measured work.
				if err := fs.Fsync(env, fd); err != nil {
					return err
				}
			default:
				return fmt.Errorf("fig_cache: unknown pattern %q", pattern)
			}
			out.Res.Elapsed = env.Now() - start

			after := fs.CacheStats()
			out.Stats = fcDelta(before, after)
			return nil
		}()
	})
	m.Eng.Run(0)
	if rerr != nil {
		return nil, rerr
	}
	return out, nil
}

// fcDelta subtracts the setup phase's counters; high-water marks and gauges
// stay absolute.
func fcDelta(before, after aeofs.CacheStats) aeofs.CacheStats {
	return aeofs.CacheStats{
		Hits:            after.Hits - before.Hits,
		Misses:          after.Misses - before.Misses,
		Evictions:       after.Evictions - before.Evictions,
		DirtyEvictions:  after.DirtyEvictions - before.DirtyEvictions,
		ReadaheadIssued: after.ReadaheadIssued - before.ReadaheadIssued,
		ReadaheadHits:   after.ReadaheadHits - before.ReadaheadHits,
		ReadaheadWaste:  after.ReadaheadWaste - before.ReadaheadWaste,
		WritebackRuns:   after.WritebackRuns - before.WritebackRuns,
		WritebackPages:  after.WritebackPages - before.WritebackPages,
		WritebackErrors: after.WritebackErrors - before.WritebackErrors,
		Throttled:       after.Throttled - before.Throttled,
		ResidentBytes:   after.ResidentBytes,
		ResidentHWM:     after.ResidentHWM,
		DirtyBytes:      after.DirtyBytes,
	}
}

// fcHitPct renders the measured-phase page-lookup hit rate.
func fcHitPct(s aeofs.CacheStats) string {
	total := s.Hits + s.Misses
	if total == 0 {
		return "0.0"
	}
	return fmt.Sprintf("%.1f", 100*float64(s.Hits)/float64(total))
}

// FigCache regenerates the page-cache study: buffered-I/O throughput and
// tail latency over a sweep of residency budgets, with asynchronous
// read-ahead off and on. Sequential reads with read-ahead pipeline the
// device's channels and dominate the synchronous demand-fetch
// configuration; random reads are insensitive to the window; the mixed
// cell exercises dirty write-back under eviction pressure. Each pair of
// cells must pass fcGate, or the run is an error.
func FigCache() ([]*report.Table, error) {
	t := &report.Table{
		ID:    "fig_cache",
		Title: "Page-cache throughput/latency vs residency budget and read-ahead",
		Columns: []string{"workload", "cache_kb", "readahead", "MBps", "p99_us",
			"hit_pct", "evict", "ra_waste", "hwm_kb"},
	}
	for _, pattern := range []string{"seqread", "randread", "mixed"} {
		for _, cacheBytes := range fcCacheSizes {
			var cells [2]*fcResult // off, on
			for i, ra := range []bool{false, true} {
				r, err := figCacheRun(pattern, cacheBytes, ra, nil)
				if err != nil {
					return nil, fmt.Errorf("fig_cache %s/%d/%v: %w", pattern, cacheBytes, ra, err)
				}
				cells[i] = r
				mode := "off"
				if ra {
					mode = "on"
				}
				t.AddRowf(pattern,
					fmt.Sprintf("%d", cacheBytes>>10), mode,
					fmt.Sprintf("%.1f", r.Res.MBps()),
					usec(r.Res.Latency.P99()),
					fcHitPct(r.Stats),
					fmt.Sprintf("%d", r.Stats.Evictions),
					fmt.Sprintf("%d", r.Stats.ReadaheadWaste),
					fmt.Sprintf("%d", r.Stats.ResidentHWM>>10))
			}
			if err := fcGate(pattern, cacheBytes, cells[0], cells[1]); err != nil {
				return nil, err
			}
		}
	}
	t.Note("one 4 MiB file, cold cache per cell; seqread %d KiB x %d passes, randread/mixed %d x 4 KiB ops (70%% reads)",
		fcSeqChunk>>10, fcSeqPasses, fcRandOps)
	t.Note("read-ahead: adaptive window 4..32 pages, 8-page commands; write-back: background flusher on core 1")
	t.Note("on = mount default, off = baseline; gate: seqread on/off >= %.1fx at %d KiB and >= %.1fx everywhere, randread/mixed >= %.2fx, seqread ra_waste <= %.0f%% of issued",
		fcSeqSpeedup, fcDefaultCache>>10, fcSeqSpeedupMin, 1-fcNonSeqLoss, 100*fcSeqWasteMax)
	return []*report.Table{t}, nil
}

// fcTraceGate checks the traced cell: the cache, read-ahead and write-back
// events the invariants range over all occurred, none of the invariants —
// the budget is never exceeded, no completion fills an evicted page, a dirty
// eviction follows a write-back that covers it, every I/O chain is causal —
// was violated, and the cache's own high-water mark agrees about the budget.
func fcTraceGate(c *tracedCell, residentHWM uint64) error {
	if err := c.clean(trace.CacheBudget, trace.CacheInsert, trace.CacheEvict,
		trace.ReadaheadIssue, trace.ReadaheadHit, trace.WritebackRun); err != nil {
		return err
	}
	if residentHWM > fcDefaultCache {
		return fmt.Errorf("%s: resident high-water mark %d exceeds the %d-byte budget", c.name, residentHWM, fcDefaultCache)
	}
	return nil
}

// figCacheTrace runs the sequential cell at the default budget with
// read-ahead on and tracing on, and reports its cache counters.
func figCacheTrace() (*Traced, error) {
	tr := trace.New(2, 1<<19)
	r, err := figCacheRun("seqread", fcDefaultCache, true, tr)
	if err != nil {
		return nil, err
	}
	c := captured(fmt.Sprintf("fig_cache seqread/%d KiB/on", fcDefaultCache>>10), tr)
	s := r.Stats
	t := &report.Table{
		ID:    "cache_counters",
		Title: "Page-cache counters (traced sequential cell, read-ahead on)",
		Columns: []string{"hits", "misses", "evict", "dirty_evict",
			"ra_issued", "ra_hits", "ra_waste", "wb_runs", "wb_pages",
			"throttled", "hwm_kb"},
	}
	t.AddRowf(s.Hits, s.Misses, s.Evictions, s.DirtyEvictions,
		s.ReadaheadIssued, s.ReadaheadHits, s.ReadaheadWaste,
		s.WritebackRuns, s.WritebackPages, s.Throttled, s.ResidentHWM>>10)
	return &Traced{
		Events: c.evs,
		Tables: []*report.Table{t},
		Summary: fmt.Sprintf("%d ops, %.1f MB/s, p99 %v",
			r.Res.Ops, r.Res.MBps(), r.Res.Latency.P99()),
	}, fcTraceGate(c, s.ResidentHWM)
}

// splitmix64 is the deterministic content/offset generator shared by the
// cache cells.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
