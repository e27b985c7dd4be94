package aeofs_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/faultinject"
	"aeolia/internal/sim"
)

// TestConcurrentDisjointWritersSameFile: the range lock must let two tasks
// write disjoint halves of one file in parallel, and both halves must land.
func TestConcurrentDisjointWritersSameFile(t *testing.T) {
	fx := newFixture(t, 2)
	fx.run(t, "prep", func(env *sim.Env) error {
		return writeFile(env, fx.fs, "/big", make([]byte, 64*aeofs.BlockSize))
	})
	var errs [2]error
	var elapsed [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		fx.m.Eng.Spawn(fmt.Sprintf("w%d", i), fx.m.Eng.Core(i), func(env *sim.Env) {
			if _, e := fx.p.Driver.CreateQP(env); e != nil {
				errs[i] = e
				return
			}
			fd, e := fx.fs.Open(env, "/big", aeofs.O_RDWR)
			if e != nil {
				errs[i] = e
				return
			}
			defer fx.fs.Close(env, fd)
			start := env.Now()
			half := uint64(32 * aeofs.BlockSize)
			data := bytes.Repeat([]byte{byte(i + 1)}, int(half))
			if _, e := fx.fs.WriteAt(env, fd, data, uint64(i)*half); e != nil {
				errs[i] = e
				return
			}
			elapsed[i] = env.Now() - start
		})
	}
	fx.m.Run(0)
	for i, e := range errs {
		if e != nil {
			t.Fatalf("writer %d: %v", i, e)
		}
	}
	fx.run(t, "verify", func(env *sim.Env) error {
		got, err := readFile(env, fx.fs, "/big")
		if err != nil {
			return err
		}
		half := 32 * aeofs.BlockSize
		if got[0] != 1 || got[half-1] != 1 {
			return fmt.Errorf("first half corrupted: %d %d", got[0], got[half-1])
		}
		if got[half] != 2 || got[2*half-1] != 2 {
			return fmt.Errorf("second half corrupted: %d %d", got[half], got[2*half-1])
		}
		return nil
	})
}

// TestConcurrentReadersSameRange: readers on the same pages proceed in
// parallel (the range lock is shared for reads).
func TestConcurrentReadersSameRange(t *testing.T) {
	fx := newFixture(t, 4)
	data := pattern(16*aeofs.BlockSize, 9)
	fx.run(t, "prep", func(env *sim.Env) error {
		return writeFile(env, fx.fs, "/ro", data)
	})
	var errs [4]error
	for i := 0; i < 4; i++ {
		i := i
		fx.m.Eng.Spawn(fmt.Sprintf("r%d", i), fx.m.Eng.Core(i), func(env *sim.Env) {
			if _, e := fx.p.Driver.CreateQP(env); e != nil {
				errs[i] = e
				return
			}
			fd, e := fx.fs.Open(env, "/ro", aeofs.O_RDONLY)
			if e != nil {
				errs[i] = e
				return
			}
			defer fx.fs.Close(env, fd)
			buf := make([]byte, len(data))
			for rep := 0; rep < 5; rep++ {
				if _, e := fx.fs.ReadAt(env, fd, buf, 0); e != nil {
					errs[i] = e
					return
				}
				if !bytes.Equal(buf, data) {
					errs[i] = fmt.Errorf("reader %d saw corrupt data", i)
					return
				}
			}
		})
	}
	fx.m.Run(0)
	for i, e := range errs {
		if e != nil {
			t.Fatalf("reader %d: %v", i, e)
		}
	}
}

// TestConcurrentCreatesSameDirectory: many tasks creating distinct names in
// one directory must all succeed with no lost entries (dentry hash + dir
// lock under contention, including growth past the rehash threshold).
//
// Its fsck says little about the journal. When same-block images were still
// ordered by commit time this test passed only because, with 160 creates, its
// final Sync happened to cross the checkpoint threshold: fsck then read
// blocks in place and had no journal overlay to replay in the wrong order.
// TestConcurrentCreatesDistinctDirsFsck is the test of what the journal
// holds.
func TestConcurrentCreatesSameDirectory(t *testing.T) {
	const threads, per = 4, 40
	fx := newFixture(t, threads)
	fx.run(t, "prep", func(env *sim.Env) error {
		return fx.fs.Mkdir(env, "/shared")
	})
	var errs [threads]error
	for i := 0; i < threads; i++ {
		i := i
		fx.m.Eng.Spawn(fmt.Sprintf("c%d", i), fx.m.Eng.Core(i), func(env *sim.Env) {
			if _, e := fx.p.Driver.CreateQP(env); e != nil {
				errs[i] = e
				return
			}
			for j := 0; j < per; j++ {
				fd, e := fx.fs.Open(env, fmt.Sprintf("/shared/t%d-%d", i, j), aeofs.O_CREATE|aeofs.O_RDWR)
				if e != nil {
					errs[i] = e
					return
				}
				if e := fx.fs.Close(env, fd); e != nil {
					errs[i] = e
					return
				}
			}
		})
	}
	fx.m.Run(0)
	for i, e := range errs {
		if e != nil {
			t.Fatalf("creator %d: %v", i, e)
		}
	}
	fx.run(t, "verify", func(env *sim.Env) error {
		dents, err := fx.fs.ReadDir(env, "/shared")
		if err != nil {
			return err
		}
		if len(dents) != threads*per {
			return fmt.Errorf("found %d entries, want %d", len(dents), threads*per)
		}
		return nil
	})
	// The directory's integrity survives a full fsck.
	rep := fx.fsckNow(t)
	if !rep.Clean() {
		t.Fatalf("fsck after concurrent creates: %v", rep.Problems)
	}
}

// TestConcurrentAppendersDistinctFiles exercises allocator sharding: many
// appenders must never be handed overlapping blocks.
func TestConcurrentAppendersDistinctFiles(t *testing.T) {
	const threads = 4
	fx := newFixture(t, threads)
	var errs [threads]error
	for i := 0; i < threads; i++ {
		i := i
		fx.m.Eng.Spawn(fmt.Sprintf("a%d", i), fx.m.Eng.Core(i), func(env *sim.Env) {
			if _, e := fx.p.Driver.CreateQP(env); e != nil {
				errs[i] = e
				return
			}
			errs[i] = writeFile(env, fx.fs, fmt.Sprintf("/app%d", i), bytes.Repeat([]byte{byte(i + 1)}, 20*aeofs.BlockSize))
		})
	}
	fx.m.Run(0)
	for i, e := range errs {
		if e != nil {
			t.Fatalf("appender %d: %v", i, e)
		}
	}
	fx.run(t, "verify", func(env *sim.Env) error {
		for i := 0; i < threads; i++ {
			got, err := readFile(env, fx.fs, fmt.Sprintf("/app%d", i))
			if err != nil {
				return err
			}
			for _, b := range got {
				if b != byte(i+1) {
					return fmt.Errorf("file %d contains foreign byte %d (block overlap!)", i, b)
				}
			}
		}
		return nil
	})
	rep := fx.fsckNow(t)
	if !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

// TestOpenCloseChurnWithConcurrentWriter is a regression test for the
// revoke-vs-flush races found by the Filebench workload: rapid open/close
// cycles by readers must never invalidate a concurrent writer's grant or
// lose its dirty pages.
func TestOpenCloseChurnWithConcurrentWriter(t *testing.T) {
	fx := newFixture(t, 2)
	fx.run(t, "prep", func(env *sim.Env) error {
		if err := writeFile(env, fx.fs, "/churn", make([]byte, 4*aeofs.BlockSize)); err != nil {
			return err
		}
		return fx.fs.Chmod(env, "/churn", 0o606)
	})
	var werr, rerr error
	fx.m.Eng.Spawn("writer", fx.m.Eng.Core(0), func(env *sim.Env) {
		if _, e := fx.p.Driver.CreateQP(env); e != nil {
			werr = e
			return
		}
		for i := 0; i < 30; i++ {
			fd, e := fx.fs.Open(env, "/churn", aeofs.O_WRONLY|aeofs.O_APPEND)
			if e != nil {
				werr = fmt.Errorf("open %d: %w", i, e)
				return
			}
			if _, e := fx.fs.Write(env, fd, make([]byte, aeofs.BlockSize)); e != nil {
				werr = fmt.Errorf("write %d: %w", i, e)
				return
			}
			if e := fx.fs.Close(env, fd); e != nil {
				werr = fmt.Errorf("close %d: %w", i, e)
				return
			}
		}
	})
	fx.m.Eng.Spawn("churner", fx.m.Eng.Core(1), func(env *sim.Env) {
		if _, e := fx.p.Driver.CreateQP(env); e != nil {
			rerr = e
			return
		}
		buf := make([]byte, aeofs.BlockSize)
		for i := 0; i < 60; i++ {
			fd, e := fx.fs.Open(env, "/churn", aeofs.O_RDONLY)
			if e != nil {
				rerr = fmt.Errorf("open %d: %w", i, e)
				return
			}
			if _, e := fx.fs.ReadAt(env, fd, buf, 0); e != nil {
				rerr = fmt.Errorf("read %d: %w", i, e)
				return
			}
			if e := fx.fs.Close(env, fd); e != nil {
				rerr = fmt.Errorf("close %d: %w", i, e)
				return
			}
		}
	})
	fx.m.Run(0)
	if werr != nil || rerr != nil {
		t.Fatalf("writer: %v / churner: %v", werr, rerr)
	}
	fx.run(t, "verify", func(env *sim.Env) error {
		st, err := fx.fs.Stat(env, "/churn")
		if err != nil {
			return err
		}
		if st.Size != uint64(34*aeofs.BlockSize) {
			return fmt.Errorf("size = %d, want %d", st.Size, 34*aeofs.BlockSize)
		}
		return nil
	})
}

// createInOwnDirs runs threads tasks on threads cores; task i makes /d<i>
// and creates per empty files in it. No task ever touches another's
// directory, so the only metadata blocks they share are the allocator's:
// the inode bitmap and the inode-table blocks their inodes happen to sit in.
func createInOwnDirs(t *testing.T, fx *fixture, threads, per int) {
	t.Helper()
	errs := make([]error, threads)
	for i := 0; i < threads; i++ {
		i := i
		fx.m.Eng.Spawn(fmt.Sprintf("c%d", i), fx.m.Eng.Core(i), func(env *sim.Env) {
			if _, e := fx.p.Driver.CreateQP(env); e != nil {
				errs[i] = e
				return
			}
			if e := fx.fs.Mkdir(env, fmt.Sprintf("/d%d", i)); e != nil {
				errs[i] = e
				return
			}
			for j := 0; j < per; j++ {
				fd, e := fx.fs.Open(env, fmt.Sprintf("/d%d/t%d-%d", i, i, j), aeofs.O_CREATE|aeofs.O_RDWR)
				if e != nil {
					errs[i] = e
					return
				}
				if e := fx.fs.Close(env, fd); e != nil {
					errs[i] = e
					return
				}
			}
		})
	}
	fx.m.Run(0)
	for i, e := range errs {
		if e != nil {
			t.Fatalf("threads=%d per=%d: creator %d: %v", threads, per, i, e)
		}
	}
}

// distinctDirsGrid is the (threads, files per thread) sweep of the
// distinct-directory tests: the full 7 × 40 grid, or nine of its cells
// under -short (the race job's wall-clock budget).
func distinctDirsGrid() (threads, per []int) {
	if testing.Short() {
		return []int{2, 4, 8}, []int{4, 16, 40}
	}
	for th := 2; th <= 8; th++ {
		threads = append(threads, th)
	}
	for n := 1; n <= 40; n++ {
		per = append(per, n)
	}
	return threads, per
}

// TestConcurrentCreatesDistinctDirsFsck: threads creating files in their
// own directories share inode-bitmap and inode-table blocks, each image of
// which is snapshotted when the block is modified but queued on the
// journal only when the operation commits. Sync must order the images of
// one block by when they were captured: a thread that captured first and
// committed last would otherwise win the merge with a stale image, and the
// journal — what a crash replays, and what fsck overlays — would hold a
// directory entry whose inode the winning inode-table image never saw.
// The final Sync here does not checkpoint, so fsck reads the journal.
func TestConcurrentCreatesDistinctDirsFsck(t *testing.T) {
	threads, per := distinctDirsGrid()
	bad := 0
	for _, th := range threads {
		for _, n := range per {
			fx := newFixture(t, th)
			createInOwnDirs(t, fx, th, n)
			if rep := fx.fsckNow(t); !rep.Clean() {
				bad++
				t.Errorf("threads=%d per=%d: fsck: %v", th, n, rep.Problems[0])
			}
			fx.m.Eng.Shutdown()
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d cells not clean", bad, len(threads)*len(per))
	}
}

// TestConcurrentCreatesDistinctDirsCrashReplay is the same shape through
// power loss: the final Sync crashes once its commit is durable and before
// any checkpoint, so everything the threads created exists only as journal
// batches. Remount must replay them into a clean volume holding every name.
func TestConcurrentCreatesDistinctDirsCrashReplay(t *testing.T) {
	const per = 24
	for _, torn := range []bool{false, true} {
		for _, th := range []int{2, 4, 8} {
			fx := newFixture(t, th)
			createInOwnDirs(t, fx, th, per)
			fx.run(t, "sync", func(env *sim.Env) error {
				fx.trust.Crash = aeofs.CrashOnce(aeofs.CrashSyncAfterCommit)
				if err := fx.trust.Sync(env, fx.p.Driver); !errors.Is(err, aeofs.ErrCrashInjected) {
					return fmt.Errorf("sync = %v, want injected crash", err)
				}
				return nil
			})
			if torn {
				plan := faultinject.NewPlan(uint64(th)).On(faultinject.SiteCrashTorn, faultinject.WithProb(0.75, 0))
				fx.m.Dev.CrashAndReset(faultinject.TornResolver(plan))
			} else {
				fx.m.Dev.CrashAndReset(nil)
			}

			pr, trust2, fs2 := fx.remount(t)
			if trust2.RecoveredTxns == 0 {
				t.Fatalf("threads=%d torn=%v: recovery replayed nothing", th, torn)
			}
			var rerr error
			var rep *aeofs.FsckReport
			fx.m.Eng.Spawn("verify", fx.m.Eng.Core(0), func(env *sim.Env) {
				if _, rerr = pr.Driver.CreateQP(env); rerr != nil {
					return
				}
				if rep, rerr = aeofs.Fsck(env, pr.Driver, 0); rerr != nil {
					return
				}
				for i := 0; i < th && rerr == nil; i++ {
					for j := 0; j < per && rerr == nil; j++ {
						name := fmt.Sprintf("/d%d/t%d-%d", i, i, j)
						if _, err := fs2.Stat(env, name); err != nil {
							rerr = fmt.Errorf("%s: %w", name, err)
						}
					}
				}
			})
			fx.m.Run(0)
			if rerr != nil {
				t.Fatalf("threads=%d torn=%v: %v", th, torn, rerr)
			}
			if !rep.Clean() {
				t.Errorf("threads=%d torn=%v: fsck after replay: %v", th, torn, rep.Problems[0])
			}
			fx.m.Eng.Shutdown()
		}
	}
}
