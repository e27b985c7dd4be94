package aeofs_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeofs"
	"aeolia/internal/sim"
)

// pageImage is the content of page idx at write generation gen: every word
// depends on both, so a misplaced, stale or zeroed page fails a compare.
func pageImage(idx uint64, gen uint32) []byte {
	b := make([]byte, aeofs.BlockSize)
	w := (idx+1)*0x9e3779b97f4a7c15 ^ uint64(gen)<<32
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], w)
		w = w*6364136223846793005 + 1442695040888963407
	}
	return b
}

func fileImage(pages uint64, gen uint32) []byte {
	var b []byte
	for p := uint64(0); p < pages; p++ {
		b = append(b, pageImage(p, gen)...)
	}
	return b
}

// coldFile writes a file of pages pages at generation 1, makes it durable
// and empties the cache, so every later read comes from the device.
func coldFile(env *sim.Env, fs *aeofs.FS, path string, pages uint64) error {
	if err := writeFile(env, fs, path, fileImage(pages, 1)); err != nil {
		return err
	}
	return fs.DropCaches(env)
}

// TestReadWaitsOutItsReadaheadPage is ROADMAP defect (2): a reader parked on
// an in-flight read-ahead page is resumed by the kernel-path delivery of an
// earlier read-ahead command of its own queue pair. It must go back to sleep
// until its page has landed; returning on the first wake-up copies the
// buffer before the DMA has written it.
func TestReadWaitsOutItsReadaheadPage(t *testing.T) {
	const pages = 64
	fx := newFixture(t, 1)
	fx.run(t, "reader", func(env *sim.Env) error {
		if err := coldFile(env, fx.fs, "/f", pages); err != nil {
			return err
		}
		fd, err := fx.fs.Open(env, "/f", aeofs.O_RDONLY)
		if err != nil {
			return err
		}
		// Pages 1..32 go out as four 8-page commands; page 20 rides the
		// third, so two completions arrive before its own.
		if err := fx.fs.PrefetchFrom(env, fd, 0, 32); err != nil {
			return err
		}
		buf := make([]byte, aeofs.BlockSize)
		if _, err := fx.fs.ReadAt(env, fd, buf, 20*aeofs.BlockSize); err != nil {
			return err
		}
		if !bytes.Equal(buf, pageImage(20, 1)) {
			return fmt.Errorf("page 20 read while its read-ahead was in flight: not the device's bytes (first word %#x, all zero: %v)",
				binary.LittleEndian.Uint64(buf), bytes.Equal(buf, make([]byte, len(buf))))
		}
		return fx.fs.Close(env, fd)
	})
	if s := fx.fs.CacheStats(); s.ReadaheadIssued != 32 || s.ReadaheadHits != 1 {
		t.Fatalf("read-ahead issued %d pages, %d hit: the read did not wait on a read-ahead page", s.ReadaheadIssued, s.ReadaheadHits)
	}
}

// TestWriteWaitsOutItsReadaheadPage is the writer's half of defect (2): a
// full-page overwrite of an in-flight read-ahead page must not land before
// the DMA does, or the device's old bytes replace the acknowledged write.
func TestWriteWaitsOutItsReadaheadPage(t *testing.T) {
	const pages = 64
	fx := newFixture(t, 1)
	want := pageImage(20, 2)
	fx.run(t, "writer", func(env *sim.Env) error {
		if err := coldFile(env, fx.fs, "/f", pages); err != nil {
			return err
		}
		fd, err := fx.fs.Open(env, "/f", aeofs.O_RDWR)
		if err != nil {
			return err
		}
		if err := fx.fs.PrefetchFrom(env, fd, 0, 32); err != nil {
			return err
		}
		if _, err := fx.fs.WriteAt(env, fd, want, 20*aeofs.BlockSize); err != nil {
			return err
		}
		// Let every read-ahead command land, then look.
		env.Sleep(time.Millisecond)
		buf := make([]byte, aeofs.BlockSize)
		if _, err := fx.fs.ReadAt(env, fd, buf, 20*aeofs.BlockSize); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("page 20 overwritten while its read-ahead was in flight: the write was lost (generation-1 bytes back: %v)",
				bytes.Equal(buf, pageImage(20, 1)))
		}
		return fx.fs.Close(env, fd)
	})
}

// TestFlushSkipsPageEvictedSinceItsDirtyList is ROADMAP defect (3): between
// a flusher taking its dirty list and gathering the pages, the CLOCK hand
// writes one of them back and drops it. The flusher must write nothing for
// that page; a block of zeros in its place lands after the evictor's
// write-back and destroys acknowledged data, visibly so after a remount.
func TestFlushSkipsPageEvictedSinceItsDirtyList(t *testing.T) {
	const pages = 8
	fx := newFixture(t, 1)
	fx.run(t, "writer", func(env *sim.Env) error {
		if err := writeFile(env, fx.fs, "/f", fileImage(pages, 1)); err != nil {
			return err
		}
		fd, err := fx.fs.Open(env, "/f", aeofs.O_RDWR)
		if err != nil {
			return err
		}
		// Pages 2..5 go to generation 2 and stay dirty.
		for p := uint64(2); p <= 5; p++ {
			if _, err := fx.fs.WriteAt(env, fd, pageImage(p, 2), p*aeofs.BlockSize); err != nil {
				return err
			}
		}
		if err := fx.fs.FlushAcrossEviction(env, fd, 3); err != nil {
			return err
		}
		if err := fx.fs.Fsync(env, fd); err != nil {
			return err
		}
		return fx.fs.Close(env, fd)
	})
	if s := fx.fs.CacheStats(); s.DirtyEvictions != 1 || s.WritebackPages < 4 {
		t.Fatalf("%d dirty evictions, %d pages written back: the interleaving did not happen", s.DirtyEvictions, s.WritebackPages)
	}

	p2, _, fs2 := fx.remount(t)
	fx.p = p2
	fx.run(t, "verify", func(env *sim.Env) error {
		got, err := readFile(env, fs2, "/f")
		if err != nil {
			return err
		}
		for p := uint64(0); p < pages; p++ {
			gen := uint32(1)
			if p >= 2 && p <= 5 {
				gen = 2
			}
			if page := got[p*aeofs.BlockSize : (p+1)*aeofs.BlockSize]; !bytes.Equal(page, pageImage(p, gen)) {
				return fmt.Errorf("page %d after remount: not generation %d (all zero: %v)",
					p, gen, bytes.Equal(page, make([]byte, len(page))))
			}
		}
		return nil
	})
}

// TestReadaheadOutlivesItsThread is ROADMAP defect (4): a thread that ends —
// or deletes its queue pair — with read-ahead in flight must not leave the
// pages fill-pending for ever. The next reader of those pages gets the
// device's bytes, in bounded virtual time.
func TestReadaheadOutlivesItsThread(t *testing.T) {
	for _, deleteQP := range []bool{false, true} {
		t.Run(fmt.Sprintf("deleteQP=%v", deleteQP), func(t *testing.T) {
			const pages = 64
			fx := newCacheFixture(t, 2, aeofs.CacheConfig{})
			fx.run(t, "setup", func(env *sim.Env) error { return coldFile(env, fx.fs, "/f", pages) })

			var aErr, bErr error
			var bDone time.Duration
			fx.m.Eng.Spawn("A", fx.m.Eng.Core(0), func(env *sim.Env) {
				aErr = func() error {
					if _, err := fx.p.Driver.CreateQP(env); err != nil {
						return err
					}
					fd, err := fx.fs.Open(env, "/f", aeofs.O_RDONLY)
					if err != nil {
						return err
					}
					// Eight sequential pages: the last read tops the
					// pipeline up, and A leaves at once.
					buf := make([]byte, aeofs.BlockSize)
					for p := uint64(0); p < 8; p++ {
						if _, err := fx.fs.ReadAt(env, fd, buf, p*aeofs.BlockSize); err != nil {
							return err
						}
					}
					if deleteQP {
						return fx.p.Driver.DeleteQP(env)
					}
					return nil
				}()
			})
			fx.m.Eng.Spawn("B", fx.m.Eng.Core(1), func(env *sim.Env) {
				bErr = func() error {
					if _, err := fx.p.Driver.CreateQP(env); err != nil {
						return err
					}
					env.Sleep(time.Millisecond) // A is long gone
					got, err := readFile(env, fx.fs, "/f")
					if err != nil {
						return err
					}
					if !bytes.Equal(got, fileImage(pages, 1)) {
						return fmt.Errorf("B read %d bytes that are not the file", len(got))
					}
					bDone = env.Now()
					return nil
				}()
			})
			start := fx.m.Eng.Now()
			fx.m.Run(0)
			if aErr != nil || bErr != nil {
				t.Fatalf("A: %v, B: %v", aErr, bErr)
			}
			if s := fx.fs.CacheStats(); s.ReadaheadIssued == 0 {
				t.Fatal("A issued no read-ahead")
			}
			if bDone == 0 {
				t.Fatal("B never finished: it is parked on a page whose fill died with A")
			}
			if d := bDone - start; d > 2*time.Millisecond {
				t.Fatalf("B finished after %v of virtual time, want <= 2ms", d)
			}
		})
	}
}

// TestPollingMountReadsSequentially: read-ahead is fire-and-forget, and a
// polling driver raises no notification for a completion nobody waits on,
// so a mount over one must stay on demand fetches — a cold sequential scan
// finishes, with the right bytes, instead of parking on its own prefetch.
func TestPollingMountReadsSequentially(t *testing.T) {
	const pages = 64
	fx := newModeFixture(t, 1, aeofs.CacheConfig{}, aeodriver.ModePoll)
	done := false
	fx.run(t, "scan", func(env *sim.Env) error {
		if err := coldFile(env, fx.fs, "/f", pages); err != nil {
			return err
		}
		fd, err := fx.fs.Open(env, "/f", aeofs.O_RDONLY)
		if err != nil {
			return err
		}
		buf := make([]byte, aeofs.BlockSize)
		for p := uint64(0); p < pages; p++ {
			if _, err := fx.fs.ReadAt(env, fd, buf, p*aeofs.BlockSize); err != nil {
				return err
			}
			if !bytes.Equal(buf, pageImage(p, 1)) {
				return fmt.Errorf("page %d: wrong bytes", p)
			}
		}
		done = true
		return fx.fs.Close(env, fd)
	})
	if !done {
		t.Fatal("the scan never finished")
	}
	if s := fx.fs.CacheStats(); s.ReadaheadIssued != 0 {
		t.Fatalf("a polling mount issued %d read-ahead pages", s.ReadaheadIssued)
	}
}

// TestReadaheadWindowFollowsRunLength pins the ramp: a read-ahead hit widens
// the window only while the stream is already twice as long, so what a short
// sequential burst leaves unread ahead of it is bounded by the burst, while
// a scan from a cold start has the full window out after 32 pages.
func TestReadaheadWindowFollowsRunLength(t *testing.T) {
	for _, tc := range []struct {
		name          string
		first, n      uint64 // the burst: n single-page reads from page first
		issued, ahead uint64 // read-ahead pages submitted, and left unread
	}{
		// A burst in mid-file starts with a read that breaks the stream.
		{"burst of 2", 100, 2, 4, 4},
		{"burst of 7", 100, 7, 9, 4},
		{"burst of 8", 100, 8, 14, 8},
		{"burst of 15", 100, 15, 21, 8},
		{"burst of 16", 100, 16, 30, 16},
		// A scan from page 0 extends the (empty) stream from its first read.
		{"scan of 31", 0, 31, 46, 16},
		{"scan of 32", 0, 32, 63, 32},
		{"scan of 100", 0, 100, 131, 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture(t, 1)
			fx.run(t, "reader", func(env *sim.Env) error {
				if err := coldFile(env, fx.fs, "/f", 256); err != nil {
					return err
				}
				fd, err := fx.fs.Open(env, "/f", aeofs.O_RDONLY)
				if err != nil {
					return err
				}
				buf := make([]byte, aeofs.BlockSize)
				for p := tc.first; p < tc.first+tc.n; p++ {
					if _, err := fx.fs.ReadAt(env, fd, buf, p*aeofs.BlockSize); err != nil {
						return err
					}
					if !bytes.Equal(buf, pageImage(p, 1)) {
						return fmt.Errorf("page %d: wrong bytes", p)
					}
				}
				return fx.fs.Close(env, fd)
			})
			s := fx.fs.CacheStats()
			if s.ReadaheadIssued != tc.issued || s.ReadaheadIssued-s.ReadaheadHits != tc.ahead {
				t.Fatalf("%d pages issued, %d left unread; want %d and %d",
					s.ReadaheadIssued, s.ReadaheadIssued-s.ReadaheadHits, tc.issued, tc.ahead)
			}
		})
	}
}
