package aeolia

// Micro-benchmarks of the hot substrates: the host-time cost of the
// simulator's own primitives.
//
//	go test -bench=. -benchmem
//
// The paper's figures are not benchmarks: `go run ./cmd/aeobench <id>`
// regenerates and checks each one.

import (
	"testing"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeofs"
	"aeolia/internal/aeokern"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/vfs"
)

// BenchmarkSimContextSwitch measures the host cost of one simulated
// block/wake/dispatch cycle.
func BenchmarkSimContextSwitch(b *testing.B) {
	m := machine.New(1, nvme.Config{BlockSize: 4096, NumBlocks: 1 << 12})
	defer m.Eng.Shutdown()
	n := 0
	m.Eng.Spawn("sleeper", m.Eng.Core(0), func(env *sim.Env) {
		for ; n < b.N; n++ {
			env.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	m.Eng.Run(0)
}

// BenchmarkDevice4KRead measures the host cost of a full simulated NVMe
// round trip (submit, service, CQE, per-command completion).
func BenchmarkDevice4KRead(b *testing.B) {
	eng := sim.NewEngine(0, nil)
	dev := nvme.NewDevice(eng, nvme.Config{BlockSize: 4096, NumBlocks: 1 << 16})
	qp, err := dev.CreateQueuePair(64)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: uint64(i % 1024), NLB: 1, Data: buf}); err != nil {
			b.Fatal(err)
		}
		eng.Run(0)
		qp.Poll(0)
	}
}

// BenchmarkAeoDriver4KRead measures a full Aeolia I/O through the gate,
// permission table, queue pair, and user-interrupt delivery.
func BenchmarkAeoDriver4KRead(b *testing.B) {
	m := machine.New(1, nvme.Config{BlockSize: 4096, NumBlocks: 1 << 16})
	defer m.Eng.Shutdown()
	p, err := m.Launch("bench", aeokern.Partition{Start: 0, Blocks: 1 << 16, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	var rerr error
	m.Eng.Spawn("io", m.Eng.Core(0), func(env *sim.Env) {
		if _, e := p.Driver.CreateQP(env); e != nil {
			rerr = e
			return
		}
		buf := make([]byte, 4096)
		for ; n < b.N; n++ {
			if e := p.Driver.ReadBlk(env, uint64(n%1024), 1, buf); e != nil {
				rerr = e
				return
			}
		}
	})
	b.ResetTimer()
	m.Eng.Run(0)
	if rerr != nil {
		b.Fatal(rerr)
	}
}

// BenchmarkAeoFSCachedRead measures a page-cache-hit 4KB read through the
// full AeoFS untrusted layer.
func BenchmarkAeoFSCachedRead(b *testing.B) {
	m := machine.New(1, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 16})
	defer m.Eng.Shutdown()
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{})
	if err != nil {
		b.Fatal(err)
	}
	fs := fi.FS
	n := 0
	var rerr error
	m.Eng.Spawn("io", m.Eng.Core(0), func(env *sim.Env) {
		if init, ok := fs.(vfs.PerThreadInit); ok {
			if e := init.InitThread(env); e != nil {
				rerr = e
				return
			}
		}
		fd, e := fs.Open(env, "/bench", vfs.O_CREATE|vfs.O_RDWR)
		if e != nil {
			rerr = e
			return
		}
		buf := make([]byte, 4096)
		fs.Write(env, fd, buf)
		for ; n < b.N; n++ {
			if _, e := fs.ReadAt(env, fd, buf, 0); e != nil {
				rerr = e
				return
			}
		}
		fs.Close(env, fd)
	})
	b.ResetTimer()
	m.Eng.Run(0)
	if rerr != nil {
		b.Fatal(rerr)
	}
}

// BenchmarkAeoFSCreate measures file creation through the trusted layer
// (eager checks + journaling).
func BenchmarkAeoFSCreate(b *testing.B) {
	m := machine.New(1, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 18})
	defer m.Eng.Shutdown()
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{})
	if err != nil {
		b.Fatal(err)
	}
	fs := fi.AeoFS
	n := 0
	var rerr error
	m.Eng.Spawn("meta", m.Eng.Core(0), func(env *sim.Env) {
		if _, e := fi.Proc.Driver.CreateQP(env); e != nil {
			rerr = e
			return
		}
		names := make([]byte, 0, 32)
		for ; n < b.N; n++ {
			names = names[:0]
			names = append(names, "/c-"...)
			for v := n; ; v /= 10 {
				names = append(names, byte('0'+v%10))
				if v < 10 {
					break
				}
			}
			fd, e := fs.Open(env, string(names), aeofs.O_CREATE|aeofs.O_RDWR)
			if e != nil {
				rerr = e
				return
			}
			fs.Close(env, fd)
		}
	})
	b.ResetTimer()
	m.Eng.Run(0)
	if rerr != nil {
		b.Fatal(rerr)
	}
}

// BenchmarkCacheHitReadParallel measures the host cost of the epoch
// fast-read path under full parallel load: eight reader tasks, one per
// core, each performing b.N cache-hit reads of a resident file — the cell
// the fig_zerocopy cache half sweeps.
func BenchmarkCacheHitReadParallel(b *testing.B) {
	const cores = 8
	m := machine.New(cores, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 15})
	defer m.Eng.Shutdown()
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{})
	if err != nil {
		b.Fatal(err)
	}
	fs := fi.FS
	const filePages = 16
	var serr error
	m.Eng.Spawn("seed", m.Eng.Core(0), func(env *sim.Env) {
		if init, ok := fs.(vfs.PerThreadInit); ok {
			if e := init.InitThread(env); e != nil {
				serr = e
				return
			}
		}
		fd, e := fs.Open(env, "/bench", vfs.O_CREATE|vfs.O_RDWR)
		if e != nil {
			serr = e
			return
		}
		if _, e := fs.WriteAt(env, fd, make([]byte, filePages*aeofs.BlockSize), 0); e != nil {
			serr = e
			return
		}
		serr = fs.Close(env, fd)
	})
	m.Eng.Run(0)
	if serr != nil {
		b.Fatal(serr)
	}
	errs := make([]error, cores)
	for c := 0; c < cores; c++ {
		c := c
		m.Eng.Spawn("rd", m.Eng.Core(c), func(env *sim.Env) {
			if init, ok := fs.(vfs.PerThreadInit); ok {
				if e := init.InitThread(env); e != nil {
					errs[c] = e
					return
				}
			}
			fd, e := fs.Open(env, "/bench", vfs.O_RDONLY)
			if e != nil {
				errs[c] = e
				return
			}
			buf := make([]byte, aeofs.BlockSize)
			for i := 0; i < b.N; i++ {
				off := uint64((i*7+c*3)%filePages) * aeofs.BlockSize
				if _, e := fs.ReadAt(env, fd, buf, off); e != nil {
					errs[c] = e
					return
				}
			}
			errs[c] = fs.Close(env, fd)
		})
	}
	b.ResetTimer()
	m.Eng.Run(0)
	b.StopTimer()
	for c, e := range errs {
		if e != nil {
			b.Fatalf("reader %d: %v", c, e)
		}
	}
	if fi.AeoFS.CacheStats().FastReads == 0 {
		b.Fatal("epoch fast-read path never engaged")
	}
}
