package aeofs_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeofs"
	"aeolia/internal/aeokern"
	"aeolia/internal/faultinject"
	"aeolia/internal/machine"
	"aeolia/internal/sim"
)

// remount builds a fresh process + trust layer over the fixture's device,
// simulating a post-crash restart (all in-memory state discarded, journal
// recovery runs at mount).
func (fx *fixture) remount(t *testing.T) (*machine.Process, *aeofs.TrustLayer, *aeofs.FS) {
	t.Helper()
	p2, err := fx.m.Launch(fmt.Sprintf("restart%d", fx.m.Dev.QueuePairCount()),
		aeokern.Partition{Start: 0, Blocks: testDiskBlocks, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	if err != nil {
		t.Fatal(err)
	}
	var trust *aeofs.TrustLayer
	var fs *aeofs.FS
	var rerr error
	fx.m.Eng.Spawn("remount", fx.m.Eng.Core(0), func(env *sim.Env) {
		if _, e := p2.Driver.CreateQP(env); e != nil {
			rerr = e
			return
		}
		trust, rerr = aeofs.MountExisting(env, p2.Driver, 0)
		if rerr == nil {
			fs = aeofs.NewFS(trust, p2.Driver, 1)
		}
	})
	fx.m.Run(0)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return p2, trust, fs
}

// TestCrashBeforeCheckpointReplaysJournal is the core crash-consistency
// test: metadata committed to the journal but not yet checkpointed in place
// must be recovered at mount.
func TestCrashBeforeCheckpointReplaysJournal(t *testing.T) {
	fx := newFixture(t, 1)
	data := pattern(2*aeofs.BlockSize, 3)
	fx.run(t, "workload", func(env *sim.Env) error {
		fx.fs.Mkdir(env, "/d")
		if err := writeFile(env, fx.fs, "/d/f", data); err != nil {
			return err
		}
		// Crash after journal commit, before checkpoint (named crash
		// point, driven by a deterministic fault plan).
		plan := faultinject.NewPlan(1).On(aeofs.CrashSyncAfterCommit, faultinject.Once())
		fx.trust.Crash = plan.CrashFunc()
		fd, err := fx.fs.Open(env, "/d/f", aeofs.O_RDWR)
		if err != nil {
			return err
		}
		if err := fx.fs.Fsync(env, fd); !errors.Is(err, aeofs.ErrCrashInjected) {
			return fmt.Errorf("fsync = %v, want injected crash", err)
		}
		return nil
	})

	pr, trust2, fs2 := fx.remount(t)
	if trust2.RecoveredTxns == 0 {
		t.Fatal("recovery replayed no transactions")
	}
	var rerr error
	fx.m.Eng.Spawn("verify", fx.m.Eng.Core(0), func(env *sim.Env) {
		if _, err := pr.Driver.CreateQP(env); err != nil {
			rerr = err
			return
		}
		got, err := readFile(env, fs2, "/d/f")
		if err != nil {
			rerr = fmt.Errorf("read after recovery: %w", err)
			return
		}
		if !bytes.Equal(got, data) {
			rerr = errors.New("recovered content mismatch")
		}
	})
	fx.m.Run(0)
	if rerr != nil {
		t.Fatal(rerr)
	}
}

// TestUncommittedOpsLostButConsistent: operations never fsynced may vanish
// on crash, but the file system must mount clean and stay consistent.
func TestUncommittedOpsLostButConsistent(t *testing.T) {
	fx := newFixture(t, 1)
	fx.run(t, "committed", func(env *sim.Env) error {
		fx.fs.Mkdir(env, "/durable")
		if err := writeFile(env, fx.fs, "/durable/f", pattern(100, 1)); err != nil {
			return err
		}
		fd, _ := fx.fs.Open(env, "/durable/f", aeofs.O_RDWR)
		if err := fx.fs.Fsync(env, fd); err != nil {
			return err
		}
		return fx.fs.Close(env, fd)
	})
	fx.run(t, "uncommitted", func(env *sim.Env) error {
		// Created but never fsynced: may be lost on crash.
		fx.fs.Mkdir(env, "/volatile")
		return writeFile(env, fx.fs, "/volatile/g", pattern(100, 2))
	})

	// Crash: discard all in-memory state without any sync.
	pr, _, fs2 := fx.remount(t)
	var rerr error
	fx.m.Eng.Spawn("verify", fx.m.Eng.Core(0), func(env *sim.Env) {
		if _, err := pr.Driver.CreateQP(env); err != nil {
			rerr = err
			return
		}
		if _, err := fs2.Stat(env, "/durable/f"); err != nil {
			rerr = fmt.Errorf("durable file lost: %w", err)
			return
		}
		got, err := readFile(env, fs2, "/durable/f")
		if err != nil || !bytes.Equal(got, pattern(100, 1)) {
			rerr = fmt.Errorf("durable content wrong: %v", err)
			return
		}
		// The volatile dir may or may not exist; if it does, it must
		// be walkable without corruption errors.
		if _, err := fs2.ReadDir(env, "/"); err != nil {
			rerr = fmt.Errorf("root readdir after crash: %w", err)
		}
	})
	fx.m.Run(0)
	if rerr != nil {
		t.Fatal(rerr)
	}
}

// TestSyncIdempotentAndEmpty exercises fsync with no pending transactions.
func TestSyncIdempotentAndEmpty(t *testing.T) {
	fx := newFixture(t, 1)
	fx.run(t, "sync", func(env *sim.Env) error {
		fd, err := fx.fs.Open(env, "/e", aeofs.O_CREATE|aeofs.O_RDWR)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := fx.fs.Fsync(env, fd); err != nil {
				return err
			}
		}
		return fx.fs.Close(env, fd)
	})
	if fx.trust.Syncs == 0 {
		t.Fatal("no sync recorded")
	}
}

// TestJournalMergeAcrossThreads: two tasks mutate the same directory (same
// metadata blocks) through different per-thread journals; the fsync merge
// must order by capture stamp so the final on-disk state is the latest.
func TestJournalMergeAcrossThreads(t *testing.T) {
	fx := newFixture(t, 2)
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		i := i
		fx.m.Eng.Spawn(fmt.Sprintf("w%d", i), fx.m.Eng.Core(i), func(env *sim.Env) {
			if _, err := fx.p.Driver.CreateQP(env); err != nil {
				done <- err
				return
			}
			for j := 0; j < 20; j++ {
				name := fmt.Sprintf("/t%d-%d", i, j)
				if err := writeFile(env, fx.fs, name, pattern(64, byte(i))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		})
	}
	fx.m.Run(0)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	fx.run(t, "fsync", func(env *sim.Env) error {
		fd, err := fx.fs.Open(env, "/t0-0", aeofs.O_RDWR)
		if err != nil {
			return err
		}
		defer fx.fs.Close(env, fd)
		return fx.fs.Fsync(env, fd)
	})

	// Remount and verify all 40 files survive.
	pr, _, fs2 := fx.remount(t)
	var rerr error
	fx.m.Eng.Spawn("verify", fx.m.Eng.Core(0), func(env *sim.Env) {
		if _, err := pr.Driver.CreateQP(env); err != nil {
			rerr = err
			return
		}
		for i := 0; i < 2 && rerr == nil; i++ {
			for j := 0; j < 20; j++ {
				name := fmt.Sprintf("/t%d-%d", i, j)
				if _, err := fs2.Stat(env, name); err != nil {
					rerr = fmt.Errorf("%s: %w", name, err)
					return
				}
			}
		}
	})
	fx.m.Run(0)
	if rerr != nil {
		t.Fatal(rerr)
	}
}

// TestCrossProcessSharingPenalty verifies Table 6's mechanism: when two
// processes write the same file, each write triggers an auxiliary-state
// rebuild plus an immediate fsync.
func TestCrossProcessSharingPenalty(t *testing.T) {
	fx := newFixture(t, 2)
	// Second process over the same partition.
	p2, err := fx.m.Launch("proc2", aeokern.Partition{Start: 0, Blocks: testDiskBlocks, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	if err != nil {
		t.Fatal(err)
	}
	// Both processes' FS instances share the machine's trusted layer
	// (one trusted domain per machine), each with its own auxiliary
	// state — the deployment §9.4 measures.
	fsB := aeofs.NewFS(fx.trust, p2.Driver, 2)
	fx.run(t, "seed", func(env *sim.Env) error {
		if err := writeFile(env, fx.fs, "/shared.dat", pattern(aeofs.BlockSize, 1)); err != nil {
			return err
		}
		// Let the second tenant write it too.
		return fx.fs.Chmod(env, "/shared.dat", 0o606)
	})
	// Both processes hold the file open concurrently and append — the
	// shape of Table 6's workload.
	var werrA, werrB error
	fx.m.Eng.Spawn("writerA", fx.m.Eng.Core(0), func(env *sim.Env) {
		if _, e := fx.p.Driver.CreateQP(env); e != nil {
			werrA = e
			return
		}
		fd, e := fx.fs.Open(env, "/shared.dat", aeofs.O_RDWR|aeofs.O_APPEND)
		if e != nil {
			werrA = e
			return
		}
		for i := 0; i < 5; i++ {
			if _, e := fx.fs.Write(env, fd, pattern(512, 3)); e != nil {
				werrA = e
				return
			}
			env.Sleep(100 * 1000) // 100µs between appends
		}
		werrA = fx.fs.Close(env, fd)
	})
	fx.m.Eng.Spawn("writerB", fx.m.Eng.Core(1), func(env *sim.Env) {
		if _, e := p2.Driver.CreateQP(env); e != nil {
			werrB = e
			return
		}
		fd, e := fsB.Open(env, "/shared.dat", aeofs.O_RDWR|aeofs.O_APPEND)
		if e != nil {
			werrB = e
			return
		}
		for i := 0; i < 5; i++ {
			if _, e := fsB.Write(env, fd, pattern(512, 2)); e != nil {
				werrB = e
				return
			}
			env.Sleep(100 * 1000)
		}
		werrB = fsB.Close(env, fd)
	})
	fx.m.Run(0)
	if werrA != nil || werrB != nil {
		t.Fatalf("writers: %v / %v", werrA, werrB)
	}
	if fx.fs.SharedPenalties.Load() == 0 && fsB.SharedPenalties.Load() == 0 {
		t.Fatal("no sharing penalty recorded for concurrently-written file")
	}
	if fx.trust.Syncs == 0 {
		t.Fatal("sharing mode performed no immediate fsyncs")
	}
}

// TestRemountContinuesJournalSequences: a mount that finds nothing to replay
// must still continue the on-disk batch and commit sequences. Region headers
// keep the start sequence their last checkpoint wrote; a fresh mount that
// restarted its batches below it would write commits that the next recovery
// takes for stale leftovers and silently drops.
func TestRemountContinuesJournalSequences(t *testing.T) {
	fx := newFixture(t, 1)
	fx.run(t, "age the journal", func(env *sim.Env) error {
		for i := 0; i < 6; i++ {
			if err := writeFile(env, fx.fs, fmt.Sprintf("/old%d", i), pattern(100, byte(i))); err != nil {
				return err
			}
			if err := fx.trust.Sync(env, fx.p.Driver); err != nil {
				return err
			}
		}
		return fx.trust.Checkpoint(env, fx.p.Driver)
	})

	// Clean restart: everything is in place, the journal is retired.
	pr, trust2, fs2 := fx.remount(t)
	if trust2.RecoveredTxns != 0 {
		t.Fatalf("clean remount replayed %d batches", trust2.RecoveredTxns)
	}
	data := pattern(3000, 7)
	var rerr error
	fx.m.Eng.Spawn("second life", fx.m.Eng.Core(0), func(env *sim.Env) {
		if _, rerr = pr.Driver.CreateQP(env); rerr != nil {
			return
		}
		if rerr = writeFile(env, fs2, "/new", data); rerr != nil {
			return
		}
		fd, err := fs2.Open(env, "/new", aeofs.O_RDWR)
		if err != nil {
			rerr = err
			return
		}
		trust2.Crash = aeofs.CrashOnce(aeofs.CrashSyncAfterCommit)
		if err := fs2.Fsync(env, fd); !errors.Is(err, aeofs.ErrCrashInjected) {
			rerr = fmt.Errorf("fsync = %v, want injected crash", err)
		}
	})
	fx.m.Run(0)
	if rerr != nil {
		t.Fatal(rerr)
	}
	fx.m.Dev.CrashAndReset(nil)

	pr3, trust3, fs3 := fx.remount(t)
	if trust3.RecoveredTxns == 0 {
		t.Fatal("the commit made after the clean remount was not replayed")
	}
	fx.m.Eng.Spawn("verify", fx.m.Eng.Core(0), func(env *sim.Env) {
		if _, rerr = pr3.Driver.CreateQP(env); rerr != nil {
			return
		}
		got, err := readFile(env, fs3, "/new")
		if err != nil {
			rerr = fmt.Errorf("committed file lost: %w", err)
			return
		}
		if !bytes.Equal(got, data) {
			rerr = errors.New("committed file content diverged")
			return
		}
		rep, err := aeofs.Fsck(env, pr3.Driver, 0)
		if err != nil {
			rerr = err
		} else if !rep.Clean() {
			rerr = fmt.Errorf("fsck: %v", rep.Problems)
		}
	})
	fx.m.Run(0)
	if rerr != nil {
		t.Fatal(rerr)
	}
}

// deviceSums returns a checksum of each block the tests below can touch, as
// the device holds it now (write cache included): the before-image for
// diffDevice. The span is all metadata and journal plus the head of the
// data area, where these tests' few small files and directories land.
func (fx *fixture) deviceSums() []uint32 {
	sums := make([]uint32, fx.trust.Superblock().DataStart+1024)
	buf := make([]byte, aeofs.BlockSize)
	for blk := range sums {
		fx.m.Dev.PeekBlock(uint64(blk), buf)
		sums[blk] = crc32.ChecksumIEEE(buf)
	}
	return sums
}

// diffDevice returns the maximal runs [lo, hi) of blocks whose contents
// changed since before was taken.
func (fx *fixture) diffDevice(before []uint32) (runs [][2]uint64) {
	for blk, sum := range fx.deviceSums() {
		if sum == before[blk] {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1][1] == uint64(blk) {
			runs[n-1][1]++
		} else {
			runs = append(runs, [2]uint64{uint64(blk), uint64(blk) + 1})
		}
	}
	return runs
}

// TestCrashPointCutsVectoredPhase checks the crash-point contract of a
// phase that goes down as one vectored write: a point consulted while the
// vector is being built submits the pieces built before it and nothing
// after. Two threads that each created files in a directory of their own
// leave two journal regions pending and several in-place runs to
// checkpoint; crashing on the first visit must leave exactly one region's
// batch (one in-place run) on the device, on the second visit exactly two.
func TestCrashPointCutsVectoredPhase(t *testing.T) {
	for visit := 1; visit <= 2; visit++ {
		// sync:mid-journal is visited after each region's batch is laid.
		fx := newFixture(t, 2)
		createInOwnDirs(t, fx, 2, 8)
		before := fx.deviceSums()
		fx.run(t, "sync", func(env *sim.Env) error {
			fx.trust.Crash = aeofs.CrashAt(aeofs.CrashSyncMidJournal, visit)
			if err := fx.trust.Sync(env, fx.p.Driver); !errors.Is(err, aeofs.ErrCrashInjected) {
				return fmt.Errorf("sync = %v, want injected crash", err)
			}
			return nil
		})
		sb := fx.trust.Superblock()
		regions := map[uint64]bool{}
		for _, run := range fx.diffDevice(before) {
			if run[0] < sb.JournalStart || run[1] > sb.JournalStart+sb.NumJournals*sb.JournalArea {
				t.Fatalf("visit %d: journal phase wrote [%d,%d), outside the journal", visit, run[0], run[1])
			}
			regions[(run[0]-sb.JournalStart)/sb.JournalArea] = true
		}
		if len(regions) != visit {
			t.Errorf("sync:mid-journal visit %d: %d region(s) reached the device, want %d", visit, len(regions), visit)
		}
		fx.m.Eng.Shutdown()

		// ckpt:mid-write is visited before every in-place run but the first.
		fx = newFixture(t, 2)
		createInOwnDirs(t, fx, 2, 8)
		fx.run(t, "commit", func(env *sim.Env) error { return fx.trust.Sync(env, fx.p.Driver) })
		before = fx.deviceSums()
		fx.run(t, "checkpoint", func(env *sim.Env) error {
			fx.trust.Crash = aeofs.CrashAt(aeofs.CrashCkptMidWrite, visit)
			if err := fx.trust.Checkpoint(env, fx.p.Driver); !errors.Is(err, aeofs.ErrCrashInjected) {
				return fmt.Errorf("checkpoint = %v, want injected crash", err)
			}
			return nil
		})
		if runs := fx.diffDevice(before); len(runs) != visit {
			t.Errorf("ckpt:mid-write visit %d: in-place runs on the device = %v, want %d", visit, runs, visit)
		}
		fx.m.Eng.Shutdown()
	}
}

// journalHeaderOf reports whether blk is a journal region's header block
// and which region's.
func journalHeaderOf(sb aeofs.Superblock, blk uint64) (region uint64, ok bool) {
	if blk < sb.JournalStart || blk >= sb.JournalStart+sb.NumJournals*sb.JournalArea {
		return 0, false
	}
	off := blk - sb.JournalStart
	return off / sb.JournalArea, off%sb.JournalArea == 0
}

// TestIncompleteCommitIsDiscarded: merging before writing spreads one
// transaction over several regions' batches (its directory block in its own
// region, the inode-table image that superseded its own in another's), so
// the commit, not the batch, is what replay must take whole or not at all.
// Power fails with every batch written and none flushed, and the device
// happens to keep exactly one region's blocks: recovery must replay nothing.
func TestIncompleteCommitIsDiscarded(t *testing.T) {
	for keep := 0; keep < 2; keep++ {
		fx := newFixture(t, 2)
		fx.run(t, "baseline", func(env *sim.Env) error { return fx.trust.Checkpoint(env, fx.p.Driver) })
		createInOwnDirs(t, fx, 2, 8)
		before := fx.deviceSums()
		fx.run(t, "sync", func(env *sim.Env) error {
			fx.trust.Crash = aeofs.CrashOnce(aeofs.CrashSyncBeforeFlush)
			if err := fx.trust.Sync(env, fx.p.Driver); !errors.Is(err, aeofs.ErrCrashInjected) {
				return fmt.Errorf("sync = %v, want injected crash", err)
			}
			return nil
		})
		sb := fx.trust.Superblock()
		var written []uint64 // regions holding an unflushed batch
		for _, run := range fx.diffDevice(before) {
			written = append(written, (run[0]-sb.JournalStart)/sb.JournalArea)
		}
		if len(written) != 2 {
			t.Fatalf("commit wrote regions %v, want two", written)
		}
		fx.m.Dev.CrashAndReset(func(blk uint64, durable, cached []byte) []byte {
			if (blk-sb.JournalStart)/sb.JournalArea == written[keep] {
				return cached
			}
			return durable
		})

		pr, trust2, fs2 := fx.remount(t)
		if trust2.RecoveredTxns != 0 {
			t.Errorf("kept region %d only: recovery replayed %d batch(es) of a commit it has half of", written[keep], trust2.RecoveredTxns)
		}
		var rerr error
		fx.m.Eng.Spawn("verify", fx.m.Eng.Core(0), func(env *sim.Env) {
			if _, rerr = pr.Driver.CreateQP(env); rerr != nil {
				return
			}
			rep, err := aeofs.Fsck(env, pr.Driver, 0)
			if err != nil {
				rerr = err
			} else if !rep.Clean() {
				rerr = fmt.Errorf("fsck: %v", rep.Problems)
			}
			// The volume is usable and the half-commit's residue is
			// harmless: new commits replay, the residue never does.
			if rerr == nil {
				rerr = writeFile(env, fs2, "/after", pattern(100, 1))
			}
			if rerr == nil {
				rerr = trust2.Sync(env, pr.Driver)
			}
		})
		fx.m.Run(0)
		if rerr != nil {
			t.Fatalf("kept region %d only: %v", written[keep], rerr)
		}
		fx.m.Eng.Shutdown()
	}
}

// TestPartialRetireStillRetires: a checkpoint retires the journal by
// rewriting region headers, several blocks that power loss can split. A
// region whose header did not make it keeps batches that look live, and
// replaying them would put older images over the ones the checkpoint had
// just written in place. Every header carries the checkpointed commit, so
// one surviving header retires the journal everywhere.
func TestPartialRetireStillRetires(t *testing.T) {
	fx := newFixture(t, 1)
	// Two tasks, so two regions, commit one after the other; the second
	// commit's inode-table and bitmap images supersede the first's.
	for i, name := range []string{"/first", "/second"} {
		fx.run(t, name, func(env *sim.Env) error {
			if err := writeFile(env, fx.fs, name, pattern(100, byte(i))); err != nil {
				return err
			}
			return fx.trust.Sync(env, fx.p.Driver)
		})
	}
	before := fx.deviceSums()
	fx.run(t, "checkpoint", func(env *sim.Env) error {
		fx.trust.Crash = aeofs.CrashOnce(aeofs.CrashCkptAfterRetire)
		if err := fx.trust.Checkpoint(env, fx.p.Driver); !errors.Is(err, aeofs.ErrCrashInjected) {
			return fmt.Errorf("checkpoint = %v, want injected crash", err)
		}
		return nil
	})
	sb := fx.trust.Superblock()
	var headers []uint64
	for _, run := range fx.diffDevice(before) {
		if _, ok := journalHeaderOf(sb, run[0]); ok && run[1] == run[0]+1 {
			headers = append(headers, run[0])
		}
	}
	if len(headers) != 2 {
		t.Fatalf("retire rewrote headers %v, want two", headers)
	}
	// Keep the later committer's header, lose the earlier one's.
	fx.m.Dev.CrashAndReset(func(blk uint64, durable, cached []byte) []byte {
		if blk == headers[1] {
			return cached
		}
		return durable
	})

	pr, trust2, fs2 := fx.remount(t)
	if trust2.RecoveredTxns != 0 {
		t.Errorf("recovery replayed %d checkpointed batch(es)", trust2.RecoveredTxns)
	}
	var rerr error
	fx.m.Eng.Spawn("verify", fx.m.Eng.Core(0), func(env *sim.Env) {
		if _, rerr = pr.Driver.CreateQP(env); rerr != nil {
			return
		}
		for i, name := range []string{"/first", "/second"} {
			got, err := readFile(env, fs2, name)
			if err != nil || !bytes.Equal(got, pattern(100, byte(i))) {
				rerr = fmt.Errorf("%s after partial retire: %v", name, err)
				return
			}
		}
		rep, err := aeofs.Fsck(env, pr.Driver, 0)
		if err != nil {
			rerr = err
		} else if !rep.Clean() {
			rerr = fmt.Errorf("fsck: %v", rep.Problems)
		}
	})
	fx.m.Run(0)
	if rerr != nil {
		t.Fatal(rerr)
	}
}
