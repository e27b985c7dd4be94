package aeofs_test

import (
	"testing"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/alloctest"
	"aeolia/internal/sim"
)

// TestAllocsResidentRead: a 4 KiB read of a resident page — descriptor and
// range lock, page-cache lookup, copy-out, and the CPU time all of it is
// charged — allocates nothing, in the file system or in the engine under it.
func TestAllocsResidentRead(t *testing.T) {
	const pages = 64
	fx := newFixture(t, 1)
	fx.run(t, "fill", func(env *sim.Env) error {
		return writeFile(env, fx.fs, "/hot", pattern(pages*aeofs.BlockSize, 1))
	})
	reads := 0
	fx.m.Eng.Spawn("reader", fx.m.Eng.Core(0), func(env *sim.Env) {
		if _, err := fx.p.Driver.CreateQP(env); err != nil {
			t.Fatal(err)
		}
		fd, err := fx.fs.Open(env, "/hot", aeofs.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, aeofs.BlockSize)
		for {
			// A stride that is not sequential, so read-ahead stays out of it.
			off := uint64(reads*17%pages) * aeofs.BlockSize
			if n, err := fx.fs.ReadAt(env, fd, buf, off); err != nil || n != len(buf) {
				t.Fatalf("ReadAt(%d) = %d, %v", off, n, err)
			}
			reads++
		}
	})
	advance := func() { fx.m.Run(fx.m.Eng.Now() + 10*time.Microsecond) }
	alloctest.More(&reads, 2*pages, advance)() // every page touched once before counting
	alloctest.AtMost(t, 0, 500, alloctest.More(&reads, 500, advance))
}
