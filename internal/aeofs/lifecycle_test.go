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

// The page lifecycle's edges off the happy path: failed and refused reads,
// pages removed while their read is in flight, eviction racing a truncate,
// and a background write-back the device refuses. Each test drives its
// edges through the public file operations with device faults injected and
// ends by checking the books: the mount's dirty and resident bytes equal
// the pages in the tree.

// inject installs a device fault plan that fires site by rule r.
func inject(fx *fixture, site string, r faultinject.Rule) {
	fx.m.Dev.SetInjector(&faultinject.DeviceFaults{Plan: faultinject.NewPlan(1).On(site, r)})
}

// spawn starts body as a task with its own queue pair on core. The error
// it returns is in *err once fx.m.Run has returned.
func spawn(fx *fixture, name string, core int, body func(env *sim.Env) error) (err *error) {
	err = new(error)
	fx.m.Eng.Spawn(name, fx.m.Eng.Core(core), func(env *sim.Env) {
		if _, e := fx.p.Driver.CreateQP(env); e != nil {
			*err = e
			return
		}
		*err = body(env)
	})
	return err
}

// checkBooks fails the test unless the mount's dirty and resident bytes are
// those of the pages in its trees. Only meaningful when nothing is running.
func checkBooks(t *testing.T, fs *aeofs.FS) {
	t.Helper()
	s := fs.CacheStats()
	resident, dirty := fs.PageCounts()
	if s.DirtyBytes != dirty*aeofs.BlockSize || s.ResidentBytes != resident*aeofs.BlockSize {
		t.Fatalf("books: %d dirty and %d resident bytes for %d dirty of %d resident pages",
			s.DirtyBytes, s.ResidentBytes, dirty, resident)
	}
}

// openCold writes a cold file of pages pages at generation 1 and opens it.
func openCold(t *testing.T, fx *fixture, pages uint64) int {
	t.Helper()
	var fd int
	fx.run(t, "setup", func(env *sim.Env) (err error) {
		if err := coldFile(env, fx.fs, "/f", pages); err != nil {
			return err
		}
		fd, err = fx.fs.Open(env, "/f", aeofs.O_RDWR)
		return err
	})
	return fd
}

// expectFile fails the test unless the file reads back as want through an
// empty cache.
func expectFile(t *testing.T, fx *fixture, want []byte) {
	t.Helper()
	fx.run(t, "read back", func(env *sim.Env) error {
		if err := fx.fs.DropCaches(env); err != nil {
			return err
		}
		got, err := readFile(env, fx.fs, "/f")
		if err != nil {
			return err
		}
		for p := 0; p*aeofs.BlockSize < len(want); p++ {
			lo, hi := p*aeofs.BlockSize, (p+1)*aeofs.BlockSize
			if !bytes.Equal(got[lo:hi], want[lo:hi]) {
				return fmt.Errorf("page %d is not what was acknowledged", p)
			}
		}
		return nil
	})
}

// TestFsyncReportsLostBackgroundWriteback: the background flusher's write
// of four acknowledged pages fails on the device. The flusher gives the
// pages up, so it does not spin on them, but the next fsync of the file
// must say so — once — instead of reporting the lost data durable.
func TestFsyncReportsLostBackgroundWriteback(t *testing.T) {
	const pages = 4
	fx := newCacheFixture(t, 2, aeofs.CacheConfig{CacheBytes: 64 * aeofs.BlockSize, FlusherCore: 1})
	fx.run(t, "writer", func(env *sim.Env) error {
		fd, err := fx.fs.Open(env, "/f", aeofs.O_CREATE|aeofs.O_RDWR)
		if err != nil {
			return err
		}
		if _, err := fx.fs.WriteAt(env, fd, fileImage(pages, 1), 0); err != nil {
			return err
		}
		if err := fx.fs.Fsync(env, fd); err != nil {
			return err
		}
		if _, err := fx.fs.WriteAt(env, fd, fileImage(pages, 2), 0); err != nil {
			return err
		}
		inject(fx, faultinject.SiteDevErrWrite, faultinject.Always())
		env.Sleep(20 * time.Millisecond)
		fx.m.Dev.SetInjector(nil)
		if s := fx.fs.CacheStats(); s.WritebackErrors != 1 || s.DirtyBytes != 0 {
			return fmt.Errorf("%d background write-back errors and %d dirty bytes, want 1 and 0",
				s.WritebackErrors, s.DirtyBytes)
		}
		if err := fx.fs.Fsync(env, fd); err == nil {
			return errors.New("fsync reported success for data the background write-back lost")
		}
		if err := fx.fs.Fsync(env, fd); err != nil {
			return fmt.Errorf("second fsync: %w (the loss is reported once)", err)
		}
		return fx.fs.Close(env, fd)
	})
	checkBooks(t, fx.fs)
	expectFile(t, fx, fileImage(pages, 1))
}

// TestWaitersOnDoomedReadahead: a reader and a writer wait on read-ahead
// pages in flight when DropCaches removes them. The read-ahead lands on
// doomed pages and returns their charge; both waiters look their page up
// again and read it from the device.
func TestWaitersOnDoomedReadahead(t *testing.T) {
	const pages = 32
	fx := newCacheFixture(t, 2, aeofs.CacheConfig{})
	fd := openCold(t, fx, pages)
	inject(fx, faultinject.SiteDevLatency, faultinject.Always()) // every read is in flight for 500 µs
	want := fileImage(pages, 1)
	patch := bytes.Repeat([]byte{0xa5}, 100)
	copy(want[9*aeofs.BlockSize:], patch)
	reader := spawn(fx, "reader", 0, func(env *sim.Env) error {
		if err := fx.fs.PrefetchFrom(env, fd, 0, 16); err != nil {
			return err
		}
		buf := make([]byte, aeofs.BlockSize)
		if _, err := fx.fs.ReadAt(env, fd, buf, 3*aeofs.BlockSize); err != nil {
			return err
		}
		if !bytes.Equal(buf, pageImage(3, 1)) {
			return errors.New("page 3 is not the device's bytes")
		}
		return nil
	})
	writer := spawn(fx, "writer", 1, func(env *sim.Env) error {
		env.Sleep(20 * time.Microsecond) // the read-ahead is out
		_, err := fx.fs.WriteAt(env, fd, patch, 9*aeofs.BlockSize)
		return err
	})
	dropper := spawn(fx, "dropper", 1, func(env *sim.Env) error {
		env.Sleep(100 * time.Microsecond) // both wait on their pages
		return fx.fs.DropCaches(env)
	})
	fx.m.Run(0)
	for _, err := range []*error{reader, writer, dropper} {
		if *err != nil {
			t.Fatal(*err)
		}
	}
	if s := fx.fs.CacheStats(); s.ReadaheadIssued != 16 || s.ReadaheadHits != 0 {
		t.Fatalf("read-ahead issued %d pages, %d hit: want 16 issued and none used", s.ReadaheadIssued, s.ReadaheadHits)
	}
	fx.m.Dev.SetInjector(nil)
	checkBooks(t, fx.fs)
	fx.run(t, "fsync", func(env *sim.Env) error { return fx.fs.Fsync(env, fd) })
	expectFile(t, fx, want)
}

// TestDemandReadDoomedInFlight: a truncate removes the page a demand read
// has in flight. The read completes with the bytes it fetched, but the page
// does not stay resident on the reader's charge.
func TestDemandReadDoomedInFlight(t *testing.T) {
	const pages = 32
	fx := newCacheFixture(t, 2, aeofs.CacheConfig{MaxReadahead: -1})
	fd := openCold(t, fx, pages)
	inject(fx, faultinject.SiteDevLatency, faultinject.Always())
	reader := spawn(fx, "reader", 0, func(env *sim.Env) error {
		buf := make([]byte, aeofs.BlockSize)
		if _, err := fx.fs.ReadAt(env, fd, buf, 20*aeofs.BlockSize); err != nil {
			return err
		}
		if !bytes.Equal(buf, pageImage(20, 1)) {
			return errors.New("page 20 is not the device's bytes")
		}
		return nil
	})
	truncater := spawn(fx, "truncater", 1, func(env *sim.Env) error {
		env.Sleep(100 * time.Microsecond)
		return fx.fs.Truncate(env, "/f", 8*aeofs.BlockSize)
	})
	fx.m.Run(0)
	if *reader != nil || *truncater != nil {
		t.Fatalf("reader: %v, truncater: %v", *reader, *truncater)
	}
	if resident, _ := fx.fs.PageCounts(); resident != 0 {
		t.Fatalf("%d pages resident, want the doomed page gone", resident)
	}
	checkBooks(t, fx.fs)
}

// TestFailedDemandRead: a demand read the device fails dooms its page, and a
// second reader waiting on that page retries with its own read (which fails
// too). A partial write whose read-modify-write read fails drops its page
// without leaving it dirty.
func TestFailedDemandRead(t *testing.T) {
	const pages = 16
	fx := newCacheFixture(t, 2, aeofs.CacheConfig{MaxReadahead: -1})
	fd := openCold(t, fx, pages)
	inject(fx, faultinject.SiteDevErrRead, faultinject.Always())
	read := func(env *sim.Env) error {
		_, err := fx.fs.ReadAt(env, fd, make([]byte, aeofs.BlockSize), 2*aeofs.BlockSize)
		return err
	}
	first := spawn(fx, "first", 0, read)
	second := spawn(fx, "second", 1, func(env *sim.Env) error {
		env.Sleep(5 * time.Microsecond) // the first reader's page is filling
		return read(env)
	})
	fx.m.Run(0)
	if *first == nil || *second == nil {
		t.Fatalf("reads of a failing device succeeded: %v, %v", *first, *second)
	}
	fx.run(t, "rmw", func(env *sim.Env) error {
		if _, err := fx.fs.WriteAt(env, fd, []byte("partial"), 7*aeofs.BlockSize); err == nil {
			return errors.New("a read-modify-write over a failing read succeeded")
		}
		return nil
	})
	fx.m.Dev.SetInjector(nil)
	if resident, _ := fx.fs.PageCounts(); resident != 0 {
		t.Fatalf("%d pages resident after failed reads", resident)
	}
	checkBooks(t, fx.fs)
	expectFile(t, fx, fileImage(pages, 1))
}

// TestFailedReadaheadPages: read-ahead the device fails leaves its pages
// failed. A demand read re-reads such a page, a partial write re-reads it
// before patching it, and a whole-page write replaces it unread; while the
// device still fails, the re-read's error reaches the caller.
func TestFailedReadaheadPages(t *testing.T) {
	const pages = 32
	fx := newCacheFixture(t, 2, aeofs.CacheConfig{})
	fd := openCold(t, fx, pages)
	want := fileImage(pages, 1)
	patch := bytes.Repeat([]byte{0x5a}, 100)
	copy(want[3*aeofs.BlockSize+50:], patch)
	copy(want[4*aeofs.BlockSize:], pageImage(4, 2))
	fx.run(t, "io", func(env *sim.Env) error {
		inject(fx, faultinject.SiteDevErrRead, faultinject.Always())
		if err := fx.fs.PrefetchFrom(env, fd, 0, 16); err != nil {
			return err
		}
		env.Sleep(time.Millisecond) // every read-ahead command has failed
		buf := make([]byte, aeofs.BlockSize)
		if _, err := fx.fs.ReadAt(env, fd, buf, 5*aeofs.BlockSize); err == nil {
			return errors.New("read of a failed page succeeded on a failing device")
		}
		if _, err := fx.fs.WriteAt(env, fd, patch, 6*aeofs.BlockSize+50); err == nil {
			return errors.New("partial write of a failed page succeeded on a failing device")
		}
		fx.m.Dev.SetInjector(nil)
		if _, err := fx.fs.ReadAt(env, fd, buf, 2*aeofs.BlockSize); err != nil {
			return err
		}
		if !bytes.Equal(buf, pageImage(2, 1)) {
			return errors.New("page 2 is not the device's bytes after its re-read")
		}
		if _, err := fx.fs.WriteAt(env, fd, patch, 3*aeofs.BlockSize+50); err != nil {
			return err
		}
		if _, err := fx.fs.WriteAt(env, fd, pageImage(4, 2), 4*aeofs.BlockSize); err != nil {
			return err
		}
		return fx.fs.Fsync(env, fd)
	})
	if s := fx.fs.CacheStats(); s.ReadaheadIssued != 16 {
		t.Fatalf("read-ahead issued %d pages, want 16", s.ReadaheadIssued)
	}
	checkBooks(t, fx.fs)
	expectFile(t, fx, want)
}

// TestReadaheadRefusedWhenSQFull: a read-ahead window of more commands than
// the queue pair has free slots is refused whole. Its pages leave the tree
// and return their charge, and demand reads carry on.
func TestReadaheadRefusedWhenSQFull(t *testing.T) {
	const pages = 1100
	fx := newCacheFixture(t, 1, aeofs.CacheConfig{})
	fd := openCold(t, fx, pages)
	fx.run(t, "prefetch", func(env *sim.Env) error {
		// 1024 pages in chunks of 8 are 128 commands; the queue pair
		// holds 127.
		if err := fx.fs.PrefetchFrom(env, fd, 0, 1024); err != nil {
			return err
		}
		if s := fx.fs.CacheStats(); s.ReadaheadIssued != 0 || s.ResidentBytes != 0 {
			return fmt.Errorf("refused read-ahead: %d pages issued, %d bytes resident", s.ReadaheadIssued, s.ResidentBytes)
		}
		buf := make([]byte, aeofs.BlockSize)
		if _, err := fx.fs.ReadAt(env, fd, buf, 10*aeofs.BlockSize); err != nil {
			return err
		}
		if !bytes.Equal(buf, pageImage(10, 1)) {
			return errors.New("page 10 is not the device's bytes")
		}
		return nil
	})
	checkBooks(t, fx.fs)
}

// TestEvictionVictimTruncatedDuringWriteback: the CLOCK hand picks a dirty
// page and writes it back; a truncate removes the page while the write is
// in flight. The reclaim must give the victim up rather than drop or count
// a page that is no longer there.
func TestEvictionVictimTruncatedDuringWriteback(t *testing.T) {
	fx := newCacheFixture(t, 2, aeofs.CacheConfig{})
	started := false
	evicter := spawn(fx, "evicter", 0, func(env *sim.Env) error {
		fd, err := fx.fs.Open(env, "/f", aeofs.O_CREATE|aeofs.O_RDWR)
		if err != nil {
			return err
		}
		if _, err := fx.fs.WriteAt(env, fd, fileImage(4, 1), 0); err != nil {
			return err
		}
		inject(fx, faultinject.SiteDevLatency, faultinject.Once()) // the write-back takes 500 µs
		started = true
		evicted, err := fx.fs.Reclaim(env, fd, 1)
		if err != nil {
			return err
		}
		if evicted {
			return errors.New("reclaimed a page truncated away during its write-back")
		}
		return nil
	})
	truncater := spawn(fx, "truncater", 1, func(env *sim.Env) error {
		for !started {
			env.Sleep(10 * time.Microsecond)
		}
		env.Sleep(100 * time.Microsecond)
		return fx.fs.Truncate(env, "/f", 0)
	})
	fx.m.Run(0)
	if *evicter != nil || *truncater != nil {
		t.Fatalf("evicter: %v, truncater: %v", *evicter, *truncater)
	}
	if s := fx.fs.CacheStats(); s.Evictions != 0 {
		t.Fatalf("%d evictions, want none", s.Evictions)
	}
	checkBooks(t, fx.fs)
}

// TestEvictionSweepAcrossUnlink: a reader's charge sends the CLOCK hand to
// a dirty page of the last file in the sweep, and the hand parks on the
// page's write-back. Meanwhile the file's writer closes and unlinks it, so
// the file leaves the sweep and its pages go with it. When the write-back
// lands the victim is gone and the sweep goes on: it must index the file
// list as it is now, one file shorter than when it parked.
func TestEvictionSweepAcrossUnlink(t *testing.T) {
	const pages = 4 // the budget, /a's size and /b's dirty pages
	fx := newCacheFixture(t, 2, aeofs.CacheConfig{
		CacheBytes:   pages * aeofs.BlockSize,
		MaxReadahead: -1,
		// No background write-back: /b's pages stay dirty until its close.
		DirtyHighWater: 2 * pages * aeofs.BlockSize,
		DirtyHardLimit: 2 * pages * aeofs.BlockSize,
		FlushInterval:  time.Hour,
	})
	fd := -1
	fx.run(t, "setup", func(env *sim.Env) (err error) {
		if err := coldFile(env, fx.fs, "/a", pages); err != nil {
			return err
		}
		fd, err = fx.fs.Open(env, "/a", aeofs.O_RDONLY)
		return err
	})
	dirtied, evicting := false, false
	writer := spawn(fx, "writer", 1, func(env *sim.Env) error {
		fdB, err := fx.fs.Open(env, "/b", aeofs.O_CREATE|aeofs.O_RDWR)
		if err != nil {
			return err
		}
		if _, err := fx.fs.WriteAt(env, fdB, fileImage(pages, 2), 0); err != nil {
			return err
		}
		dirtied = true
		for !evicting {
			env.Sleep(10 * time.Microsecond)
		}
		env.Sleep(100 * time.Microsecond) // the eviction's write-back is in flight
		if err := fx.fs.Close(env, fdB); err != nil {
			return err
		}
		return fx.fs.Unlink(env, "/b")
	})
	reader := spawn(fx, "reader", 0, func(env *sim.Env) error {
		for !dirtied {
			env.Sleep(10 * time.Microsecond)
		}
		inject(fx, faultinject.SiteDevLatency, faultinject.Once()) // the write-back takes 500 µs
		evicting = true
		buf := make([]byte, aeofs.BlockSize)
		if _, err := fx.fs.ReadAt(env, fd, buf, 0); err != nil {
			return err
		}
		if !bytes.Equal(buf, pageImage(0, 1)) {
			return errors.New("page 0 is not the device's bytes")
		}
		return nil
	})
	fx.m.Run(0)
	if *writer != nil || *reader != nil {
		t.Fatalf("writer: %v, reader: %v", *writer, *reader)
	}
	fx.m.Dev.SetInjector(nil)
	if s := fx.fs.CacheStats(); s.DirtyEvictions != 0 {
		t.Fatalf("%d dirty evictions, want none: the victim was unlinked", s.DirtyEvictions)
	}
	checkBooks(t, fx.fs)
}

// TestHoleOverFailedTailPage: a write past EOF zero-fills the hole from the
// old EOF on. When a failed read-ahead left the old tail page invalid, the
// bytes before the old EOF must come from the device, not from the failed
// read's buffer — both when the tail page is a hole page and when the write
// itself starts in it. While the device still fails, the write fails.
func TestHoleOverFailedTailPage(t *testing.T) {
	const size = 10*aeofs.BlockSize + 2048 // old EOF halfway into page 10
	fx := newCacheFixture(t, 2, aeofs.CacheConfig{})
	old := fileImage(11, 1)[:size]
	patch := []byte("written past the old EOF")
	cases := []struct {
		path string
		off  uint64
	}{
		{"/hole", 12 * aeofs.BlockSize},      // page 10 is a hole page
		{"/tail", 10*aeofs.BlockSize + 3000}, // the write starts in page 10
		{"/fails", 12 * aeofs.BlockSize},     // its re-read fails
	}
	fx.run(t, "io", func(env *sim.Env) error {
		fds := make([]int, len(cases))
		for i, c := range cases {
			if err := writeFile(env, fx.fs, c.path, old); err != nil {
				return err
			}
			fd, err := fx.fs.Open(env, c.path, aeofs.O_RDWR)
			if err != nil {
				return err
			}
			fds[i] = fd
		}
		if err := fx.fs.DropCaches(env); err != nil {
			return err
		}
		inject(fx, faultinject.SiteDevErrRead, faultinject.Always())
		for _, fd := range fds {
			if err := fx.fs.PrefetchFrom(env, fd, 0, 16); err != nil {
				return err
			}
		}
		env.Sleep(time.Millisecond) // pages 1..10 of every file failed
		if _, err := fx.fs.WriteAt(env, fds[2], patch, cases[2].off); err == nil {
			return errors.New("hole fill over a failed tail page succeeded on a failing device")
		}
		fx.m.Dev.SetInjector(nil)
		for i, c := range cases[:2] {
			if _, err := fx.fs.WriteAt(env, fds[i], patch, c.off); err != nil {
				return err
			}
			want := make([]byte, c.off+uint64(len(patch)))
			copy(want, old)
			copy(want[c.off:], patch)
			got := make([]byte, len(want))
			if _, err := fx.fs.ReadAt(env, fds[i], got, 0); err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("%s: the bytes before the old EOF were not kept", c.path)
			}
		}
		return nil
	})
	checkBooks(t, fx.fs)
}
