package aeofs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeofs"
	"aeolia/internal/aeokern"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

// newCacheFixture is newFixture with an explicit cache configuration.
func newCacheFixture(t *testing.T, cores int, cfg aeofs.CacheConfig) *fixture {
	return newModeFixture(t, cores, cfg, aeodriver.ModeUserInterrupt)
}

// newModeFixture is newCacheFixture over a driver in the given completion
// mode.
func newModeFixture(t *testing.T, cores int, cfg aeofs.CacheConfig, mode aeodriver.CompletionMode) *fixture {
	t.Helper()
	m := machine.New(cores, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: testDiskBlocks})
	t.Cleanup(m.Eng.Shutdown)
	p, err := m.Launch("app", aeokern.Partition{Start: 0, Blocks: testDiskBlocks, Writable: true},
		aeodriver.Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{m: m, p: p}
	fx.run(t, "mkfs", func(env *sim.Env) error {
		trust, err := aeofs.MkfsAndMount(env, p.Driver, 0, testDiskBlocks,
			aeofs.MkfsOptions{NumJournals: 8, JournalBlocks: 256})
		if err != nil {
			return err
		}
		fx.trust = trust
		fx.fs = aeofs.NewFSWithCache(trust, p.Driver, cores, cfg)
		return nil
	})
	return fx
}

// randomOps drives one deterministic mixed read/write/truncate sequence and
// returns every read's result next to what a flat in-memory image of the
// file says it must be, so the two read paths can be compared with each
// other and with the bytes written. locked pins the file's pc.writers count
// for the whole run, which sends every read down the locked slow path: the
// reference the epoch path is held to.
func randomOps(t *testing.T, fx *fixture, seed int64, locked bool) (outs, want [][]byte) {
	t.Helper()
	const fileSize = 96 * aeofs.BlockSize
	fx.run(t, "ops", func(env *sim.Env) error {
		rng := rand.New(rand.NewSource(seed))
		fd, err := fx.fs.Open(env, "/mix.dat", aeofs.O_CREATE|aeofs.O_RDWR)
		if err != nil {
			return err
		}
		if locked {
			fx.fs.HoldWriters(1)
			defer fx.fs.HoldWriters(-1)
		}
		model := pattern(fileSize, 1)
		if _, err := fx.fs.WriteAt(env, fd, model, 0); err != nil {
			return err
		}
		model = append([]byte(nil), model...)
		for i := 0; i < 300; i++ {
			off := uint64(rng.Intn(fileSize - 1))
			n := 1 + rng.Intn(4*aeofs.BlockSize)
			switch rng.Intn(5) {
			case 0: // write (possibly page-partial, possibly extending)
				data := pattern(n, byte(i))
				if _, err := fx.fs.WriteAt(env, fd, data, off); err != nil {
					return err
				}
				if end := int(off) + n; end > len(model) {
					model = append(model, make([]byte, end-len(model))...)
				}
				copy(model[off:], data)
			case 1: // fsync
				if err := fx.fs.Fsync(env, fd); err != nil {
					return err
				}
			case 2: // truncate shrink + regrow occasionally
				if i%7 == 0 {
					if err := fx.fs.FTruncate(env, fd, off); err != nil {
						return err
					}
					if err := fx.fs.FTruncate(env, fd, fileSize); err != nil {
						return err
					}
					model = append(model[:off], make([]byte, fileSize-int(off))...)
				}
			default: // read
				buf := make([]byte, n)
				m, err := fx.fs.ReadAt(env, fd, buf, off)
				if err != nil {
					return err
				}
				outs = append(outs, append([]byte(nil), buf[:m]...))
				want = append(want, append([]byte(nil), model[off:min(int(off)+n, len(model))]...))
			}
		}
		got, err := readFile(env, fx.fs, "/mix.dat")
		if err != nil {
			return err
		}
		outs = append(outs, got)
		want = append(want, model)
		return fx.fs.Close(env, fd)
	})
	return outs, want
}

// diffReads fails unless the locked reference reads, the epoch-path reads
// and the bytes written all agree, read by read.
func diffReads(t *testing.T, name string, slow, fast, want [][]byte) {
	t.Helper()
	if len(slow) != len(want) || len(fast) != len(want) {
		t.Fatalf("%s: read count diverged: locked %d, epoch %d, model %d", name, len(slow), len(fast), len(want))
	}
	for i := range want {
		if !bytes.Equal(slow[i], want[i]) {
			t.Fatalf("%s: locked read %d differs from the bytes written (%d vs %d bytes)", name, i, len(slow[i]), len(want[i]))
		}
		if !bytes.Equal(fast[i], want[i]) {
			t.Fatalf("%s: epoch read %d differs from the bytes written (%d vs %d bytes)", name, i, len(fast[i]), len(want[i]))
		}
	}
}

// TestFastReadEquivalence runs the same seeded workload with every read
// forced down the locked slow path and with the epoch hit path free to
// engage: every read (and the final file image) must match the other run
// and the bytes written, and the hit path must actually engage.
func TestFastReadEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		base := newCacheFixture(t, 1, aeofs.CacheConfig{})
		fast := newCacheFixture(t, 1, aeofs.CacheConfig{})
		slowOut, want := randomOps(t, base, seed, true)
		fastOut, _ := randomOps(t, fast, seed, false)
		diffReads(t, fmt.Sprintf("seed %d", seed), slowOut, fastOut, want)
		if n := base.fs.CacheStats().FastReads; n != 0 {
			t.Fatalf("seed %d: %d epoch reads in the locked reference run", seed, n)
		}
		if fast.fs.CacheStats().FastReads == 0 {
			t.Fatalf("seed %d: epoch hit path never engaged", seed)
		}
	}
}

// TestFastReadBoundedEquivalence repeats the comparison under a tight
// residency budget with read-ahead and background write-back on, so the
// hit path coexists with eviction, in-flight fills, and the flusher.
func TestFastReadBoundedEquivalence(t *testing.T) {
	cfg := aeofs.CacheConfig{
		CacheBytes:   48 * aeofs.BlockSize,
		MaxReadahead: 8,
	}
	base := newCacheFixture(t, 1, cfg)
	fast := newCacheFixture(t, 1, cfg)
	slowOut, want := randomOps(t, base, 99, true)
	fastOut, _ := randomOps(t, fast, 99, false)
	diffReads(t, "bounded", slowOut, fastOut, want)
	if n := base.fs.CacheStats().FastReads; n != 0 {
		t.Fatalf("bounded: %d epoch reads in the locked reference run", n)
	}
}

// TestLockOrderUnderWorkload turns the debug lock-order assertion on and
// drives the full stack — bounded budget (evictions under budgetMu),
// read-ahead, background write-back, concurrent readers and writers on two
// cores — so any budgetMu/rangeLock/treeLock inversion in the real call
// sites panics the run.
func TestLockOrderUnderWorkload(t *testing.T) {
	aeofs.SetLockOrderCheck(true)
	defer aeofs.SetLockOrderCheck(false)
	cfg := aeofs.CacheConfig{
		CacheBytes:     32 * aeofs.BlockSize,
		MaxReadahead:   8,
		DirtyHighWater: 8 * aeofs.BlockSize,
	}
	fx := newCacheFixture(t, 2, cfg)
	fx.run(t, "seed", func(env *sim.Env) error {
		return writeFile(env, fx.fs, "/wk.dat", pattern(128*aeofs.BlockSize, 5))
	})
	var rerr, werr error
	fx.m.Eng.Spawn("reader", fx.m.Eng.Core(0), func(env *sim.Env) {
		if _, e := fx.p.Driver.CreateQP(env); e != nil {
			rerr = e
			return
		}
		fd, err := fx.fs.Open(env, "/wk.dat", aeofs.O_RDONLY)
		if err != nil {
			rerr = err
			return
		}
		buf := make([]byte, 3*aeofs.BlockSize)
		for i := 0; i < 200; i++ {
			if _, err := fx.fs.ReadAt(env, fd, buf, uint64((i*17)%120)*aeofs.BlockSize); err != nil {
				rerr = err
				return
			}
		}
		rerr = fx.fs.Close(env, fd)
	})
	fx.m.Eng.Spawn("writer", fx.m.Eng.Core(1), func(env *sim.Env) {
		if _, e := fx.p.Driver.CreateQP(env); e != nil {
			werr = e
			return
		}
		fd, err := fx.fs.Open(env, "/wk.dat", aeofs.O_RDWR)
		if err != nil {
			werr = err
			return
		}
		for i := 0; i < 100; i++ {
			off := uint64((i*31)%120)*aeofs.BlockSize + 100
			if _, err := fx.fs.WriteAt(env, fd, pattern(aeofs.BlockSize/2, byte(i)), off); err != nil {
				werr = err
				return
			}
			if i%25 == 24 {
				if err := fx.fs.Fsync(env, fd); err != nil {
					werr = err
					return
				}
			}
		}
		werr = fx.fs.Close(env, fd)
	})
	fx.m.Run(0)
	if rerr != nil || werr != nil {
		t.Fatalf("workload errors: reader=%v writer=%v", rerr, werr)
	}
	if fx.fs.CacheStats().Evictions == 0 {
		t.Fatal("workload never evicted — the budgetMu→rangeLock→treeLock chain was not exercised")
	}
}

// TestReadAcrossResidentGap: one read whose span is miss, hit, miss must
// fetch the second miss from its own blocks. The pending-miss batch used to
// record only its first page, so misses after a resident page were read from
// the blocks of the pages right behind the first run — and cached that way.
func TestReadAcrossResidentGap(t *testing.T) {
	const pages = 8
	fx := newCacheFixture(t, 1, aeofs.CacheConfig{})
	want := make([]byte, pages*aeofs.BlockSize)
	for i := range want {
		want[i] = byte(i/aeofs.BlockSize)*31 + byte(i) // every page distinct
	}
	fx.run(t, "gap", func(env *sim.Env) error {
		fd, err := fx.fs.Open(env, "/gap.dat", aeofs.O_CREATE|aeofs.O_RDWR)
		if err != nil {
			return err
		}
		if _, err := fx.fs.WriteAt(env, fd, want, 0); err != nil {
			return err
		}
		if err := fx.fs.DropCaches(env); err != nil {
			return err
		}
		// Make pages 2 and 5 resident, then read the whole file at once.
		one := make([]byte, aeofs.BlockSize)
		for _, p := range []uint64{2, 5} {
			if _, err := fx.fs.ReadAt(env, fd, one, p*aeofs.BlockSize); err != nil {
				return err
			}
		}
		got := make([]byte, len(want))
		if _, err := fx.fs.ReadAt(env, fd, got, 0); err != nil {
			return err
		}
		for p := 0; p < pages; p++ {
			if !bytes.Equal(got[p*aeofs.BlockSize:(p+1)*aeofs.BlockSize], want[p*aeofs.BlockSize:(p+1)*aeofs.BlockSize]) {
				t.Errorf("page %d read back wrong across the resident gap", p)
			}
		}
		return fx.fs.Close(env, fd)
	})
}
