package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeofs"
	"aeolia/internal/aeokern"
	"aeolia/internal/machine"
	"aeolia/internal/mix"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

// The crash-consistency matrix: for every registered aeofs crash point ×
// {clean, torn} power-loss mode, run a workload on a fresh machine, crash at
// the point, power-cycle the device (dropping — or tearing — the volatile
// write cache), remount, and verify that (a) recovery succeeds, (b) fsck
// reports a clean volume, and (c) every file whose fsync returned success is
// intact, matching the in-memory reference model. Everything is
// deterministic in the seed, so a failing cell's Repro line reproduces it
// exactly.
//
// The base cells drive one thread, so one journal region: a commit's
// vectored journal write has one batch and sync:mid-journal can only fire
// after it. TwoRegionPoints names the points that sit *between* the pieces
// of a vectored phase; each also gets two-region cells, where a second
// thread creating files in its own directory keeps a second region (and
// more in-place runs) in every commit, and the crash lands after the first
// piece was submitted and before the second was.

// MatrixOptions parameterize one cell (or a whole matrix run).
type MatrixOptions struct {
	// Seed drives every random decision in the cell.
	Seed uint64
	// Point is the named crash point to fire (one of aeofs.CrashPoints).
	Point string
	// Torn selects the torn power-loss mode: unflushed blocks may
	// survive whole, partially (torn), or not at all, per seeded draws.
	// Clean mode drops every unflushed block.
	Torn bool
	// Regions is how many journal regions every commit spans: 1 (the
	// default) or 2, which adds the metadata-only second thread.
	Regions int
}

// A cell's workload commits cellFiles files of cellFileSize bytes (2.5
// blocks, so files span block boundaries) on a cellDiskBlocks-block
// device, forcing a checkpoint after every cellCheckpointEvery of them so
// the ckpt:* crash points are reached.
const (
	cellFiles           = 12
	cellFileSize        = 2*aeofs.BlockSize + aeofs.BlockSize/2
	cellCheckpointEvery = 4
	cellDiskBlocks      = 1 << 14
)

func (o MatrixOptions) withDefaults() MatrixOptions {
	if o.Regions <= 0 {
		o.Regions = 1
	}
	return o
}

// CellResult reports one matrix cell.
type CellResult struct {
	Point   string
	Torn    bool
	Seed    uint64
	Regions int

	// CrashFired reports whether the crash point was actually reached.
	CrashFired bool
	// Committed is the number of files whose fsync returned success
	// before the crash (the reference model size).
	Committed int
	// RecoveredTxns is the journal transaction count replayed at
	// remount.
	RecoveredTxns int
	// Err is the cell's verdict: nil means the cell passed.
	Err error
	// PlanLog is the fault plan's firing log (for reproduction).
	PlanLog string
	// Visits counts how often the workload passed each aeofs crash
	// point before the crash: a point no cell ever visits is a hole in
	// the matrix, not a pass.
	Visits map[string]uint64
}

// Repro returns a one-line reproduction record for the cell; pasting the
// seed/point/torn triple into RunCell rebuilds the exact schedule.
func (r *CellResult) Repro() string {
	return fmt.Sprintf("crashmatrix seed=%d point=%q torn=%v regions=%d (%s)", r.Seed, r.Point, r.Torn, r.Regions, r.PlanLog)
}

func (r *CellResult) String() string {
	verdict := "ok"
	if r.Err != nil {
		verdict = "FAIL: " + r.Err.Error()
	}
	return fmt.Sprintf("%-20s regions=%d torn=%-5v committed=%-2d recovered=%-2d %s",
		r.Point, r.Regions, r.Torn, r.Committed, r.RecoveredTxns, verdict)
}

// TwoRegionPoints returns the crash points that also run as two-region
// cells: those consulted between the pieces of a vectored write phase.
func TwoRegionPoints() []string {
	return []string{aeofs.CrashSyncMidJournal, aeofs.CrashCkptMidWrite}
}

// RunMatrix runs every registered crash point × {clean, torn} cell, then
// the two-region cells, and returns the results (one per cell, in that
// order).
func RunMatrix(opts MatrixOptions) []*CellResult {
	var out []*CellResult
	cells := func(regions int, points []string) {
		for _, point := range points {
			for _, torn := range []bool{false, true} {
				o := opts
				o.Point, o.Torn, o.Regions = point, torn, regions
				out = append(out, RunCell(o))
			}
		}
	}
	cells(1, aeofs.CrashPoints())
	cells(2, TwoRegionPoints())
	return out
}

// cellContent derives file i's deterministic contents from the seed.
func cellContent(seed uint64, i, size int) []byte {
	b := make([]byte, size)
	x := mix.SplitMix64(seed ^ uint64(i)*0x9E3779B97F4A7C15)
	for j := range b {
		if j%8 == 0 {
			x = mix.SplitMix64(x)
		}
		b[j] = byte(x >> (8 * uint(j%8)))
	}
	return b
}

// RunCell runs one crash-consistency cell on a fresh simulated machine.
func RunCell(opts MatrixOptions) *CellResult {
	opts = opts.withDefaults()
	res := &CellResult{Point: opts.Point, Torn: opts.Torn, Seed: opts.Seed, Regions: opts.Regions}

	// Crash on a later visit of the point, not the first, so several
	// files commit beforehand and the reference model is non-trivial.
	// sync:* points are visited once per fsync, ckpt:* points once (or,
	// for mid-write, a few times) per checkpoint.
	occurrence := uint64(6)
	if strings.HasPrefix(opts.Point, "ckpt:") {
		occurrence = 2
	}
	// wb:* points are visited once per background write-back run; the
	// flusher keeps pace with the workload, so a few runs land early.
	if strings.HasPrefix(opts.Point, "wb:") {
		occurrence = 3
	}
	// With two regions in every commit sync:mid-journal is visited twice
	// per fsync, after each region's batch is laid out: an odd visit is
	// the one between the two.
	if opts.Regions == 2 && opts.Point == aeofs.CrashSyncMidJournal {
		occurrence = 7
	}
	plan := NewPlan(opts.Seed).On(opts.Point, At(occurrence))
	if opts.Torn {
		// Torn mode: at power loss most unflushed blocks get a seeded
		// verdict (survive whole / torn prefix); the rest drop.
		plan.On(SiteCrashTorn, WithProb(0.75, 0))
	}
	defer func() {
		res.PlanLog = plan.String()
		res.Visits = make(map[string]uint64)
		for _, site := range aeofs.CrashPoints() {
			res.Visits[site] = plan.Occurrences(site)
		}
	}()

	m := machine.New(opts.Regions, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: cellDiskBlocks})
	part := aeokern.Partition{Start: 0, Blocks: cellDiskBlocks, Writable: true}
	p, err := m.Launch("cell-w", part, aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	if err != nil {
		res.Err = err
		return res
	}

	// Phase 1: workload until the injected crash.
	committed := map[string][]byte{}
	var werr error
	crashed := false
	// Two-region cells: the workload thread and the metadata thread take
	// turns through these counters. Round i's create is queued (created
	// > i) before round i's fsync, and the next create waits for that
	// fsync (synced > i), so a file is in the model exactly when the
	// fsync that committed it returned.
	var (
		fs              *aeofs.FS
		created, synced int
		stop            bool
		turn            sim.WaitQueue
	)
	metaPath := func(i int) string { return fmt.Sprintf("/meta/m%03d", i) }
	if opts.Regions == 2 {
		m.Eng.Spawn("metadata", m.Eng.Core(1), func(env *sim.Env) {
			fail := func(e error) {
				werr, stop = e, true
				turn.Broadcast(env.Engine())
			}
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("metadata thread panic: %v", r))
				}
			}()
			if _, e := p.Driver.CreateQP(env); e != nil {
				fail(e)
				return
			}
			for i := 0; i < cellFiles; i++ {
				for (fs == nil || synced < i) && !stop {
					turn.Wait(env)
				}
				if stop {
					return
				}
				fd, e := fs.Open(env, metaPath(i), aeofs.O_CREATE|aeofs.O_RDWR)
				if e == nil {
					e = fs.Close(env, fd)
				}
				if e != nil {
					fail(e)
					return
				}
				created = i + 1
				turn.Broadcast(env.Engine())
			}
		})
	}
	m.Eng.Spawn("workload", m.Eng.Core(0), func(env *sim.Env) {
		defer func() {
			if r := recover(); r != nil {
				werr = fmt.Errorf("workload panic: %v", r)
			}
			stop = true
			turn.Broadcast(env.Engine())
		}()
		if _, e := p.Driver.CreateQP(env); e != nil {
			werr = e
			return
		}
		trust, e := aeofs.MkfsAndMount(env, p.Driver, 0, cellDiskBlocks,
			aeofs.MkfsOptions{NumJournals: 4, JournalBlocks: 256})
		if e != nil {
			werr = e
			return
		}
		// Mount with the background flusher enabled so the wb:* crash
		// points are reached; the budget is generous (no eviction
		// pressure), keeping the workload's durability schedule intact.
		mounted := aeofs.NewFSWithCache(trust, p.Driver, opts.Regions, aeofs.CacheConfig{
			CacheBytes:     64 * aeofs.BlockSize,
			DirtyHighWater: aeofs.BlockSize,
			DirtyHardLimit: 32 * aeofs.BlockSize,
			FlushInterval:  500 * time.Microsecond,
		})
		for _, dir := range []string{"/data", "/meta"}[:opts.Regions] {
			if e := mounted.Mkdir(env, dir); e != nil {
				werr = e
				return
			}
		}
		// Make the directory durable before arming the crash, then
		// inject from here on.
		if e := trust.Sync(env, p.Driver); e != nil {
			werr = e
			return
		}
		trust.Crash = plan.CrashFunc()
		fs = mounted
		turn.Broadcast(env.Engine())

		isCrash := func(e error) bool { return errors.Is(e, aeofs.ErrCrashInjected) }
		for i := 0; i < cellFiles; i++ {
			path := fmt.Sprintf("/data/f%03d", i)
			data := cellContent(opts.Seed, i, cellFileSize)
			fd, e := fs.Open(env, path, aeofs.O_CREATE|aeofs.O_RDWR|aeofs.O_TRUNC)
			if e != nil {
				werr = e
				return
			}
			if _, e = fs.Write(env, fd, data); e != nil {
				werr = e
				return
			}
			for opts.Regions == 2 && created <= i && !stop {
				turn.Wait(env)
			}
			if stop {
				return
			}
			if e = fs.Fsync(env, fd); e != nil {
				crashed = isCrash(e)
				if !crashed {
					werr = e
				}
				return
			}
			// fsync returned success: the file is part of the
			// committed reference model.
			committed[path] = data
			if opts.Regions == 2 {
				committed[metaPath(i)] = nil
			}
			if e = fs.Close(env, fd); e != nil {
				werr = e
				return
			}
			if (i+1)%cellCheckpointEvery == 0 {
				if e = trust.Checkpoint(env, p.Driver); e != nil {
					crashed = isCrash(e)
					if !crashed {
						werr = e
					}
					return
				}
			}
			synced = i + 1
			turn.Broadcast(env.Engine())
		}
	})
	m.Run(0)
	if werr != nil {
		res.Err = fmt.Errorf("workload: %w", werr)
		return res
	}
	res.CrashFired = crashed
	res.Committed = len(committed)
	if !crashed {
		res.Err = fmt.Errorf("crash point %q never fired (workload too small?)", opts.Point)
		return res
	}

	// Phase 2: power loss. The volatile write cache is dropped (clean) or
	// resolved block-by-block from the plan (torn).
	if opts.Torn {
		m.Dev.CrashAndReset(TornResolver(plan))
	} else {
		m.Dev.CrashAndReset(nil)
	}

	// Phase 3: reboot, recover, fsck, and diff against the model.
	p2, err := m.Launch("cell-r", part, aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	if err != nil {
		res.Err = err
		return res
	}
	var verr error
	m.Eng.Spawn("verify", m.Eng.Core(0), func(env *sim.Env) {
		defer func() {
			if r := recover(); r != nil {
				verr = fmt.Errorf("verify panic: %v", r)
			}
		}()
		if _, e := p2.Driver.CreateQP(env); e != nil {
			verr = e
			return
		}
		trust2, e := aeofs.MountExisting(env, p2.Driver, 0)
		if e != nil {
			verr = fmt.Errorf("remount: %w", e)
			return
		}
		res.RecoveredTxns = trust2.RecoveredTxns
		rep, e := aeofs.Fsck(env, p2.Driver, 0)
		if e != nil {
			verr = fmt.Errorf("fsck: %w", e)
			return
		}
		if !rep.Clean() {
			verr = fmt.Errorf("fsck not clean: %v", rep.Problems)
			return
		}
		fs2 := aeofs.NewFS(trust2, p2.Driver, 1)
		// Every committed file must be intact.
		paths := make([]string, 0, len(committed))
		for path := range committed {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			got, e := readAll(env, fs2, path)
			if e != nil {
				verr = fmt.Errorf("committed file %s: %w", path, e)
				return
			}
			if !bytes.Equal(got, committed[path]) {
				verr = fmt.Errorf("committed file %s: content diverged from model", path)
				return
			}
		}
		// Every surviving file — committed or not — must be readable
		// without corruption errors (no silent damage to uncommitted
		// state either).
		if e := walkAll(env, fs2, "/"); e != nil {
			verr = fmt.Errorf("post-crash walk: %w", e)
		}
	})
	m.Run(0)
	res.Err = verr
	return res
}

// readAll reads a file's full contents through the FS API.
func readAll(env *sim.Env, fs *aeofs.FS, path string) ([]byte, error) {
	fd, err := fs.Open(env, path, aeofs.O_RDONLY)
	if err != nil {
		return nil, err
	}
	st, err := fs.FStat(env, fd)
	if err != nil {
		fs.Close(env, fd)
		return nil, err
	}
	buf := make([]byte, st.Size)
	n, err := fs.ReadAt(env, fd, buf, 0)
	if err != nil {
		fs.Close(env, fd)
		return nil, err
	}
	if err := fs.Close(env, fd); err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// walkAll recursively visits every directory entry and reads every regular
// file, surfacing any corruption error.
func walkAll(env *sim.Env, fs *aeofs.FS, dir string) error {
	ents, err := fs.ReadDir(env, dir)
	if err != nil {
		return fmt.Errorf("readdir %s: %w", dir, err)
	}
	for _, de := range ents {
		if de.Name == "." || de.Name == ".." {
			continue
		}
		path := dir + "/" + de.Name
		if dir == "/" {
			path = "/" + de.Name
		}
		st, err := fs.Stat(env, path)
		if err != nil {
			return fmt.Errorf("stat %s: %w", path, err)
		}
		switch st.Type {
		case aeofs.TypeDir:
			if err := walkAll(env, fs, path); err != nil {
				return err
			}
		case aeofs.TypeRegular:
			if _, err := readAll(env, fs, path); err != nil {
				return fmt.Errorf("read %s: %w", path, err)
			}
		}
	}
	return nil
}

// Summarize renders matrix results as a table, flagging failures.
func Summarize(results []*CellResult) (string, int) {
	var b strings.Builder
	failures := 0
	for _, r := range results {
		fmt.Fprintln(&b, r)
		if r.Err != nil {
			failures++
			fmt.Fprintln(&b, "    repro:", r.Repro())
		}
	}
	return b.String(), failures
}
