package aeodriver_test

import (
	"testing"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeokern"
	"aeolia/internal/alloctest"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

// ioLoop runs op over and over on a one-core machine with the default driver
// and returns its op counter and "run the machine a little further".
func ioLoop(t *testing.T, op func(env *sim.Env, d *aeodriver.Driver) error) (ops *int, advance func()) {
	m := newMachine(t, 1)
	p := launch(t, m, "app", aeokern.Partition{Blocks: 1 << 16, Writable: true}, aeodriver.Config{})
	ops = new(int)
	m.Eng.Spawn("io", m.Eng.Core(0), func(env *sim.Env) {
		if _, err := p.Driver.CreateQP(env); err != nil {
			t.Fatal(err)
		}
		for {
			if err := op(env, p.Driver); err != nil {
				t.Fatal(err)
			}
			*ops++
		}
	})
	return ops, func() { m.Run(m.Eng.Now() + 10*time.Microsecond) }
}

// TestAllocsReadBlkQD1: a steady-state QD1 read is one allocation — the
// Request, which carries both of its completions. Everything under it (gate
// entry, SQE, device command, interrupt frame, handler, the five engine
// events) comes from memory that is already there.
func TestAllocsReadBlkQD1(t *testing.T) {
	buf := make([]byte, 4096)
	lba := uint64(0)
	ops, advance := ioLoop(t, func(env *sim.Env, d *aeodriver.Driver) error {
		lba = (lba + 37) % 1024
		return d.ReadBlk(env, lba, 1, buf)
	})
	alloctest.AtMost(t, 2, 500, alloctest.More(ops, 500, advance))
}

// TestAllocsSubmitBatch32: a batch of 32 is its 32 Requests and the slice
// that returns them.
func TestAllocsSubmitBatch32(t *testing.T) {
	iov := make([]aeodriver.IOVec, 32)
	for i := range iov {
		iov[i] = aeodriver.IOVec{LBA: uint64(i * 3), Cnt: 1, Buf: make([]byte, 4096)}
	}
	ops, advance := ioLoop(t, func(env *sim.Env, d *aeodriver.Driver) error {
		reqs, err := d.SubmitBatch(env, nvme.OpRead, iov, false)
		if err != nil {
			return err
		}
		return d.WaitAll(env, reqs)
	})
	alloctest.AtMost(t, 34, 50, alloctest.More(ops, 50, advance))
}
