package aeofs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"aeolia/internal/aeofs"
	"aeolia/internal/sim"
)

// Shape of the page-cache model-diff stress: a working set of one to four
// times the cache, so the CLOCK hand, dirty evictions, the background
// flusher (on core 0, beside thread 0) and read-ahead all work at once.
const (
	stressSeeds    = 64
	stressFiles    = 8
	stressPages    = 64 // per file
	stressOps      = 160
	stressMaxWrite = 16 // pages per blind overwrite
)

// stressModel is the flat model every read is diffed against: the write
// generation of every page (pageImage gives the bytes). A page has one
// writer, which raises pending before the write call and committed after it
// returns, so a read must see a generation in [committed at its start,
// pending at its end]; with no write in flight that is one value.
type stressModel struct {
	committed, pending [stressFiles][stressPages]uint32
}

// check diffs a completed read of pages [p0, p0+len(floor)) of file f
// against the model.
func (m *stressModel) check(buf []byte, f int, p0 uint64, floor []uint32) error {
	for i, lo := range floor {
		p := p0 + uint64(i)
		page := buf[i*aeofs.BlockSize : (i+1)*aeofs.BlockSize]
		ok := false
		for g := lo; g <= m.pending[f][p] && !ok; g++ {
			ok = bytes.Equal(page, pageImage(uint64(f)<<32|p, g))
		}
		if !ok {
			return fmt.Errorf("file %d page %d: not generation %d..%d (all zero: %v)",
				f, p, lo, m.pending[f][p], bytes.Equal(page, make([]byte, len(page))))
		}
	}
	return nil
}

func stressPath(f int) string { return fmt.Sprintf("/s%d", f) }

// stressThread is one generator: blind multi-page overwrites of the files it
// owns (no read first, so the pages are born dirty and unreferenced), a
// sequential scan that walks file after file, random reads anywhere, and the
// odd fsync.
func stressThread(env *sim.Env, fs *aeofs.FS, m *stressModel, rng *rand.Rand, id, threads int) error {
	var fds [stressFiles]int
	for f := range fds {
		fd, err := fs.Open(env, stressPath(f), aeofs.O_RDWR)
		if err != nil {
			return err
		}
		fds[f] = fd
	}
	buf := make([]byte, stressMaxWrite*aeofs.BlockSize)
	var floor []uint32
	read := func(f int, p0 uint64, n int) error {
		floor = append(floor[:0], m.committed[f][p0:p0+uint64(n)]...)
		b := buf[:n*aeofs.BlockSize]
		if got, err := fs.ReadAt(env, fds[f], b, p0*aeofs.BlockSize); err != nil || got != len(b) {
			return fmt.Errorf("read file %d pages %d+%d: n=%d err=%v", f, p0, n, got, err)
		}
		return m.check(b, f, p0, floor)
	}
	scanF, scanP := rng.Intn(stressFiles), uint64(0)
	for op := 0; op < stressOps; op++ {
		switch k := rng.Intn(100); {
		case k < 30: // blind overwrite in an owned file
			f := id + threads*rng.Intn((stressFiles-id+threads-1)/threads)
			n := 1 + rng.Intn(stressMaxWrite)
			p0 := uint64(rng.Intn(stressPages - n + 1))
			for i := 0; i < n; i++ {
				p := p0 + uint64(i)
				m.pending[f][p] = m.committed[f][p] + 1
				copy(buf[i*aeofs.BlockSize:], pageImage(uint64(f)<<32|p, m.pending[f][p]))
			}
			b := buf[:n*aeofs.BlockSize]
			if got, err := fs.WriteAt(env, fds[f], b, p0*aeofs.BlockSize); err != nil || got != len(b) {
				return fmt.Errorf("write file %d pages %d+%d: n=%d err=%v", f, p0, n, got, err)
			}
			for i := 0; i < n; i++ {
				m.committed[f][p0+uint64(i)] = m.pending[f][p0+uint64(i)]
			}
		case k < 65: // next step of the sequential scan
			n := min(1+rng.Intn(4), stressPages-int(scanP))
			if err := read(scanF, scanP, n); err != nil {
				return err
			}
			if scanP += uint64(n); scanP == stressPages {
				scanF, scanP = (scanF+1)%stressFiles, 0
			}
		case k < 95: // random read
			n := 1 + rng.Intn(4)
			if err := read(rng.Intn(stressFiles), uint64(rng.Intn(stressPages-n+1)), n); err != nil {
				return err
			}
		default:
			if err := fs.Fsync(env, fds[rng.Intn(stressFiles)]); err != nil {
				return err
			}
		}
	}
	// The fds stay open: the mount is abandoned for the remount below, and
	// a close would flush what the final fsync pass is there to flush.
	return nil
}

// TestCacheModelDiffStress is the page cache's oracle (ROADMAP item 1): on
// a bounded cache with default read-ahead, every read of every thread is
// diffed against the model while it runs, and after a final fsync the files
// are read back through a fresh mount. It fails on a read that returns an
// unfilled page, on a write-back that persists bytes nobody wrote, and on a
// thread left parked on a page whose fill was orphaned.
func TestCacheModelDiffStress(t *testing.T) {
	for seed := int64(1); seed <= stressSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			threads := 2 + int(seed%2)
			cache := uint64(512<<10) << (seed % 3)
			fx := newCacheFixture(t, 2, aeofs.CacheConfig{CacheBytes: cache})
			m := new(stressModel)
			fx.run(t, "prefill", func(env *sim.Env) error {
				for f := 0; f < stressFiles; f++ {
					var img []byte
					for p := uint64(0); p < stressPages; p++ {
						img = append(img, pageImage(uint64(f)<<32|p, 1)...)
						m.committed[f][p], m.pending[f][p] = 1, 1
					}
					if err := writeFile(env, fx.fs, stressPath(f), img); err != nil {
						return err
					}
				}
				return nil
			})

			errs := make([]error, threads)
			finished := 0
			for id := 0; id < threads; id++ {
				id := id
				rng := rand.New(rand.NewSource(seed<<8 | int64(id)))
				fx.m.Eng.Spawn(fmt.Sprintf("gen%d", id), fx.m.Eng.Core(id%2), func(env *sim.Env) {
					if _, errs[id] = fx.p.Driver.CreateQP(env); errs[id] == nil {
						errs[id] = stressThread(env, fx.fs, m, rng, id, threads)
					}
					finished++
				})
			}
			fx.m.Run(0)
			for id, err := range errs {
				if err != nil {
					t.Errorf("thread %d: %v", id, err)
				}
			}
			if finished != threads {
				t.Fatalf("%d of %d threads finished: the rest are parked for ever", finished, threads)
			}
			if t.Failed() {
				return
			}

			fx.run(t, "sync", func(env *sim.Env) error {
				for f := 0; f < stressFiles; f++ {
					fd, err := fx.fs.Open(env, stressPath(f), aeofs.O_RDWR)
					if err != nil {
						return err
					}
					if err := fx.fs.Fsync(env, fd); err != nil {
						return err
					}
				}
				return nil
			})
			p2, _, fs2 := fx.remount(t)
			fx.p = p2
			fx.run(t, "read-back", func(env *sim.Env) error {
				for f := 0; f < stressFiles; f++ {
					got, err := readFile(env, fs2, stressPath(f))
					if err != nil {
						return err
					}
					if len(got) != stressPages*aeofs.BlockSize {
						return fmt.Errorf("file %d: %d bytes after remount", f, len(got))
					}
					if err := m.check(got, f, 0, m.committed[f][:]); err != nil {
						return fmt.Errorf("after remount: %w", err)
					}
				}
				return nil
			})
		})
	}
}
