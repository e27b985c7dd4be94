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

// TestFastReadSeesParkedWriter: the epoch hit path reads without locks, so
// its only defence against a mutation in progress is the check it makes
// before and after its walk. Here a writer on another core is parked in the
// middle of its operation — inside writeAt waiting on a read-modify-write
// read (writers > 0), or between a tree mutation's two epoch increments
// (odd epoch) — while a reader hits a resident page of the same file. The
// read must fall back to the locked slow path, and still return the right
// bytes; with nothing parked, the same read takes the hit path.
func TestFastReadSeesParkedWriter(t *testing.T) {
	cases := []struct {
		name string
		// mutate parks in the middle of a mutation of /f, setting
		// *inside while it is parked there.
		mutate func(env *sim.Env, fx *fixture, fd int, inside *bool) error
	}{
		{"writers", func(env *sim.Env, fx *fixture, fd int, inside *bool) error {
			inject(fx, faultinject.SiteDevLatency, faultinject.Once()) // the RMW read takes 500 µs
			*inside = true
			defer func() { *inside = false }()
			_, err := fx.fs.WriteAt(env, fd, []byte("patch"), aeofs.BlockSize+100)
			return err
		}},
		{"odd epoch", func(env *sim.Env, fx *fixture, fd int, inside *bool) error {
			fx.fs.BumpEpochs()
			*inside = true
			env.Sleep(500 * time.Microsecond)
			*inside = false
			fx.fs.BumpEpochs()
			return nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fx := newCacheFixture(t, 2, aeofs.CacheConfig{MaxReadahead: -1})
			fd := -1
			page := make([]byte, aeofs.BlockSize)
			fx.run(t, "setup", func(env *sim.Env) (err error) {
				if err := coldFile(env, fx.fs, "/f", 2); err != nil {
					return err
				}
				if fd, err = fx.fs.Open(env, "/f", aeofs.O_RDWR); err != nil {
					return err
				}
				_, err = fx.fs.ReadAt(env, fd, page, 0) // page 0 resident, page 1 not
				return err
			})
			inside := false
			writer := spawn(fx, "writer", 1, func(env *sim.Env) error {
				return c.mutate(env, fx, fd, &inside)
			})
			reader := spawn(fx, "reader", 0, func(env *sim.Env) error {
				env.Sleep(100 * time.Microsecond) // the writer is parked inside
				if !inside {
					return errors.New("the writer is not parked in its mutation")
				}
				before := fx.fs.CacheStats().FastReads
				if _, err := fx.fs.ReadAt(env, fd, page, 0); err != nil {
					return err
				}
				if !bytes.Equal(page, pageImage(0, 1)) {
					return errors.New("page 0 is not the file's bytes")
				}
				if n := fx.fs.CacheStats().FastReads - before; n != 0 {
					return fmt.Errorf("%d epoch reads past a parked writer, want the slow path", n)
				}
				if !inside {
					return errors.New("the writer finished before the read did")
				}
				return nil
			})
			fx.m.Run(0)
			if *writer != nil || *reader != nil {
				t.Fatalf("writer: %v, reader: %v", *writer, *reader)
			}
			fx.run(t, "reread", func(env *sim.Env) error {
				before := fx.fs.CacheStats().FastReads
				if _, err := fx.fs.ReadAt(env, fd, page, 0); err != nil {
					return err
				}
				if fx.fs.CacheStats().FastReads == before {
					return errors.New("with nothing parked, the hit did not take the epoch path")
				}
				return nil
			})
		})
	}
}
