package faultinject

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeofs"
	"aeolia/internal/aeokern"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

// TestCrashMatrix runs the full crash-consistency matrix: every registered
// aeofs crash point × {clean, torn} power loss, each on a fresh machine with
// remount, fsck, and a diff against the committed-file reference model.
func TestCrashMatrix(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		results := RunMatrix(MatrixOptions{Seed: seed})
		if want := 2 * (len(aeofs.CrashPoints()) + len(TwoRegionPoints())); len(results) != want {
			t.Fatalf("seed %d: %d cells, want %d", seed, len(results), want)
		}
		visits := map[string]uint64{}
		for _, r := range results {
			for site, n := range r.Visits {
				visits[site] += n
			}
			if r.Regions == 2 {
				// Every commit of a two-region cell must lay out two
				// batches, and the mid-journal crash must land between
				// them, or the cell is not testing what it says.
				mid, full := r.Visits[aeofs.CrashSyncMidJournal], r.Visits[aeofs.CrashSyncBeforeFlush]
				if mid < 2*full {
					t.Errorf("seed %d: %s regions=2: %d mid-journal visits over %d full commits: commits span one region",
						seed, r.Point, mid, full)
				}
				if r.Point == aeofs.CrashSyncMidJournal && mid != 2*full+1 {
					t.Errorf("seed %d: %s regions=2: crashed on visit %d after %d full commits: not between two regions",
						seed, r.Point, mid, full)
				}
			}
			if r.Err != nil {
				t.Errorf("seed %d: cell failed: %s\n  repro: %s", seed, r, r.Repro())
				continue
			}
			if !r.CrashFired {
				t.Errorf("seed %d: %s torn=%v: crash point never fired", seed, r.Point, r.Torn)
			}
			if r.Committed == 0 {
				t.Errorf("seed %d: %s torn=%v: no files committed before crash (trivial model)", seed, r.Point, r.Torn)
			}
		}
		// A point the commit path no longer passes through would leave
		// its cells failing with "never fired"; say which point, and say
		// it even if someone relaxes that check.
		for _, site := range aeofs.CrashPoints() {
			if visits[site] == 0 {
				t.Errorf("seed %d: crash point %s was never visited by any cell", seed, site)
			}
		}
		if t.Failed() {
			table, failures := Summarize(results)
			t.Logf("seed %d matrix (%d failures):\n%s", seed, failures, table)
		}
	}
}

// TestCellRepro: re-running a cell with the same seed/point/torn triple
// produces the identical fault schedule and verdict — the property that makes
// a failing Repro() line actionable.
func TestCellRepro(t *testing.T) {
	opts := MatrixOptions{Seed: 99, Point: aeofs.CrashSyncBeforeFlush, Torn: true}
	a, b := RunCell(opts), RunCell(opts)
	if a.PlanLog != b.PlanLog {
		t.Errorf("fault schedules diverged:\n  %s\n  %s", a.PlanLog, b.PlanLog)
	}
	if (a.Err == nil) != (b.Err == nil) || a.Committed != b.Committed || a.RecoveredTxns != b.RecoveredTxns {
		t.Errorf("verdicts diverged:\n  %s\n  %s", a, b)
	}
}

// TestRandomSeedsNeverSilentCorruption is the property test: under randomized
// device-error, latency, torn-transfer, and notification faults, a mounted
// AeoFS volume never silently diverges — every divergence is either an error
// returned to the caller or caught by fsck. Faults are active during the
// workload only; verification runs with injection cleared so it measures
// state rather than injecting more faults.
func TestRandomSeedsNeverSilentCorruption(t *testing.T) {
	const base = uint64(0xAE01A)
	nseeds := 8
	if testing.Short() {
		nseeds = 3
	}
	for i := 0; i < nseeds; i++ {
		seed := splitmix64(base + uint64(i))
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runNoisySeed(t, seed)
		})
	}
}

func runNoisySeed(t *testing.T, seed uint64) {
	const (
		diskBlocks = 1 << 14
		files      = 10
	)
	plan := NewPlan(seed).
		On(SiteDevErrRead, WithProb(0.02, 0)).
		On(SiteDevErrWrite, WithProb(0.03, 0)).
		On(SiteDevErrFlush, WithProb(0.02, 0)).
		On(SiteDevTornCmd, WithProb(0.5, 0)).
		On(SiteDevLatency, WithProb(0.05, 0)).
		On(SiteUintrDrop, WithProb(0.08, 0)).
		On(SiteUintrDelay, WithProb(0.10, 0)).
		On(SiteUintrDup, WithProb(0.10, 0))

	m := machine.New(1, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: diskBlocks})
	part := aeokern.Partition{Start: 0, Blocks: diskBlocks, Writable: true}
	p, err := m.Launch("noisy", part, aeodriver.Config{
		Mode:           aeodriver.ModeUserInterrupt,
		RecoverTimeout: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// opOK marks files whose entire op sequence (open/write/fsync/close)
	// returned success; only those participate in the silent-divergence
	// check. opErrs collects every surfaced error.
	content := map[string][]byte{}
	opOK := map[string]bool{}
	var opErrs []error
	var trust *aeofs.TrustLayer
	var fs *aeofs.FS
	panicked := false

	m.Eng.Spawn("workload", m.Eng.Core(0), func(env *sim.Env) {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				opErrs = append(opErrs, fmt.Errorf("workload panic: %v", r))
			}
		}()
		if _, e := p.Driver.CreateQP(env); e != nil {
			opErrs = append(opErrs, e)
			return
		}
		trust, err = aeofs.MkfsAndMount(env, p.Driver, 0, diskBlocks,
			aeofs.MkfsOptions{NumJournals: 4, JournalBlocks: 256})
		if err != nil {
			opErrs = append(opErrs, err)
			return
		}
		fs = aeofs.NewFS(trust, p.Driver, 1)
		if e := fs.Mkdir(env, "/data"); e != nil {
			opErrs = append(opErrs, e)
			return
		}
		// Clean setup done; inject from here on.
		m.Dev.SetInjector(&DeviceFaults{Plan: plan})
		if e := p.Driver.SetNotifyHook(env, &NotifyFaults{Plan: plan}); e != nil {
			opErrs = append(opErrs, e)
			return
		}
		for i := 0; i < files; i++ {
			path := fmt.Sprintf("/data/n%03d", i)
			data := cellContent(seed, i, 2*aeofs.BlockSize+37)
			content[path] = data
			ok := true
			fd, e := fs.Open(env, path, aeofs.O_CREATE|aeofs.O_RDWR|aeofs.O_TRUNC)
			if e != nil {
				opErrs, ok = append(opErrs, e), false
				continue
			}
			if _, e = fs.Write(env, fd, data); e != nil {
				opErrs, ok = append(opErrs, e), false
			}
			if e = fs.Fsync(env, fd); e != nil {
				opErrs, ok = append(opErrs, e), false
			}
			if e = fs.Close(env, fd); e != nil {
				opErrs, ok = append(opErrs, e), false
			}
			opOK[path] = ok
		}
	})
	m.Run(0)
	t.Logf("seed %d: %d files, %d surfaced errors, %s", seed, files, len(opErrs), plan)
	if panicked {
		// A panic is loud, not silent — the property holds trivially, but
		// the locks it abandoned make further FS calls unsafe. Stop here.
		t.Logf("seed %d: workload panicked (surfaced): %v", seed, opErrs[len(opErrs)-1])
		return
	}
	if trust == nil || fs == nil {
		t.Logf("seed %d: setup failed loudly: %v", seed, opErrs)
		return
	}

	// Verification phase: clear all injection, then measure.
	m.Dev.SetInjector(nil)
	type mismatch struct {
		path string
		err  error
	}
	var mismatches []mismatch
	var rep *aeofs.FsckReport
	var verr error
	m.Eng.Spawn("verify", m.Eng.Core(0), func(env *sim.Env) {
		defer func() {
			if r := recover(); r != nil {
				verr = fmt.Errorf("verify panic: %v", r)
			}
		}()
		if _, e := p.Driver.CreateQP(env); e != nil {
			verr = e
			return
		}
		for i := 0; i < files; i++ {
			path := fmt.Sprintf("/data/n%03d", i)
			if !opOK[path] {
				continue
			}
			got, e := readAll(env, fs, path)
			if e != nil {
				mismatches = append(mismatches, mismatch{path, e})
				continue
			}
			if !bytes.Equal(got, content[path]) {
				mismatches = append(mismatches, mismatch{path, fmt.Errorf("content diverged (%d vs %d bytes)", len(got), len(content[path]))})
			}
		}
		if e := trust.Sync(env, p.Driver); e != nil {
			verr = fmt.Errorf("final sync: %w", e)
			return
		}
		rep, verr = aeofs.Fsck(env, p.Driver, 0)
	})
	m.Run(0)
	if verr != nil {
		t.Fatalf("seed %d: verification failed: %v\n  repro: %s", seed, verr, plan)
	}

	// The property: a file whose every op succeeded must read back intact,
	// unless fsck catches the damage. A mismatch with a clean fsck is
	// silent corruption.
	for _, mm := range mismatches {
		if rep != nil && rep.Clean() {
			t.Errorf("seed %d: SILENT corruption: %s: %v (ops succeeded, fsck clean)\n  repro: %s",
				seed, mm.path, mm.err, plan)
		} else {
			t.Logf("seed %d: %s diverged (%v) but fsck caught it — loud, property holds", seed, mm.path, mm.err)
		}
	}
	// And when no errors surfaced at all, the volume must also be
	// structurally clean.
	if len(opErrs) == 0 && rep != nil && !rep.Clean() {
		t.Errorf("seed %d: no errors surfaced but fsck found: %v\n  repro: %s", seed, rep.Problems, plan)
	}
}

// TestMatrixShortBudget guards the -short wall-clock budget: the reduced
// matrix plus property sweep must stay far under a minute. (Run only in
// -short so full runs don't double the work.)
func TestMatrixShortBudget(t *testing.T) {
	if !testing.Short() {
		t.Skip("budget guard applies to -short runs")
	}
	start := time.Now()
	RunMatrix(MatrixOptions{Seed: 3})
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("one matrix sweep took %v; -short budget (60s) at risk", elapsed)
	}
}
