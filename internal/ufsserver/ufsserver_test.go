package ufsserver_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/vfs"
	"aeolia/internal/workload"
)

func buildUFS(t *testing.T, appCores, workers int) (*machine.Machine, *machine.FSInstance, []*sim.Core) {
	t.Helper()
	m := machine.New(appCores+workers, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 16})
	t.Cleanup(m.Eng.Shutdown)
	opt := machine.FSOptions{}
	for i := 0; i < workers; i++ {
		opt.UFSWorkerCores = append(opt.UFSWorkerCores, m.Eng.Core(appCores+i))
	}
	fi, err := m.BuildFS(machine.KindUFS, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fi.UFS.Stop)
	cs := make([]*sim.Core, appCores)
	for i := range cs {
		cs[i] = m.Eng.Core(i)
	}
	return m, fi, cs
}

func TestUFSBasicIO(t *testing.T) {
	m, fi, cores := buildUFS(t, 1, 2)
	fs := fi.ForThread(0)
	var got []byte
	var rerr error
	done := false
	m.Eng.Spawn("client", cores[0], func(env *sim.Env) {
		defer func() { done = true }()
		fs.Mkdir(env, "/d")
		fd, err := fs.Open(env, "/d/f", vfs.O_CREATE|vfs.O_RDWR)
		if err != nil {
			rerr = err
			return
		}
		data := bytes.Repeat([]byte{7}, 10000)
		if _, err := fs.Write(env, fd, data); err != nil {
			rerr = err
			return
		}
		if err := fs.Fsync(env, fd); err != nil {
			rerr = err
			return
		}
		buf := make([]byte, 10000)
		if _, err := fs.ReadAt(env, fd, buf, 0); err != nil {
			rerr = err
			return
		}
		got = buf
		fs.Close(env, fd)
	})
	for !done && m.Eng.Now() < 10*time.Second {
		m.Eng.Run(m.Eng.Now() + 50*time.Millisecond)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	if got == nil || got[0] != 7 || got[9999] != 7 {
		t.Fatal("round trip through uFS failed")
	}
}

// TestIPCCostVisible: every uFS op pays the ~600ns IPC round trip on top of
// the underlying work, so a metadata op through uFS must be slower than the
// same op through AeoFS directly.
func TestIPCCostVisible(t *testing.T) {
	statTime := func(kind machine.FSKind) time.Duration {
		m := machine.New(3, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 16})
		defer m.Eng.Shutdown()
		opt := machine.FSOptions{}
		if kind == machine.KindUFS {
			opt.UFSWorkerCores = []*sim.Core{m.Eng.Core(1), m.Eng.Core(2)}
		}
		fi, err := m.BuildFS(kind, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer fi.Stop()
		fs := fi.ForThread(0)
		var dur time.Duration
		done := false
		m.Eng.Spawn("client", m.Eng.Core(0), func(env *sim.Env) {
			defer func() { done = true }()
			if init, ok := fs.(vfs.PerThreadInit); ok {
				init.InitThread(env)
			}
			fd, err := fs.Open(env, "/probe", vfs.O_CREATE|vfs.O_RDWR)
			if err != nil {
				t.Error(err)
				return
			}
			fs.Close(env, fd)
			start := env.Now()
			for i := 0; i < 100; i++ {
				fs.Stat(env, "/probe")
			}
			dur = env.Now() - start
		})
		for !done && m.Eng.Now() < 10*time.Second {
			m.Eng.Run(m.Eng.Now() + 50*time.Millisecond)
		}
		return dur
	}
	direct := statTime(machine.KindAeoFS)
	viaUFS := statTime(machine.KindUFS)
	if viaUFS <= direct {
		t.Fatalf("uFS stat (%v) should be slower than direct AeoFS (%v)", viaUFS, direct)
	}
	perOpExtra := (viaUFS - direct) / 100
	if perOpExtra < 500*time.Nanosecond {
		t.Fatalf("per-op uFS overhead = %v, want >= 500ns (IPC)", perOpExtra)
	}
}

// TestMetadataMasterIsBottleneck: metadata throughput must NOT scale with
// client threads (everything funnels to worker 0).
func TestMetadataMasterIsBottleneck(t *testing.T) {
	create := func(threads int) float64 {
		m, fi, cores := buildUFS(t, threads, 4)
		spec := &workload.ParallelSpec{
			Eng: m.Eng, Cores: cores,
			FSFor: fi.ForThread,
			Body: func(env *sim.Env, fs vfs.FileSystem, tid int) (*workload.Result, error) {
				res := &workload.Result{}
				start := env.Now()
				for i := 0; i < 60; i++ {
					fd, err := fs.Open(env, fmt.Sprintf("/t%d-%d", tid, i), vfs.O_CREATE|vfs.O_RDWR)
					if err != nil {
						return nil, err
					}
					if err := fs.Close(env, fd); err != nil {
						return nil, err
					}
					res.Ops++
				}
				res.Elapsed = env.Now() - start
				return res, nil
			},
			Horizon: 5 * time.Minute,
		}
		res, _, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.OpsPerSec()
	}
	one := create(1)
	eight := create(8)
	if eight > 2.5*one {
		t.Fatalf("uFS creates scaled %.1fx with 8 threads (%.0f -> %.0f ops/s); master bottleneck missing",
			eight/one, one, eight)
	}
}

// TestWorkerStatsAccumulate sanity-checks server-side accounting.
func TestWorkerStatsAccumulate(t *testing.T) {
	m, fi, cores := buildUFS(t, 1, 2)
	fs := fi.ForThread(0)
	done := false
	m.Eng.Spawn("client", cores[0], func(env *sim.Env) {
		defer func() { done = true }()
		for i := 0; i < 10; i++ {
			fd, _ := fs.Open(env, fmt.Sprintf("/w%d", i), vfs.O_CREATE|vfs.O_RDWR)
			fs.Write(env, fd, make([]byte, 4096))
			fs.Close(env, fd)
		}
	})
	for !done && m.Eng.Now() < 10*time.Second {
		m.Eng.Run(m.Eng.Now() + 50*time.Millisecond)
	}
	var total uint64
	for _, w := range fi.UFS.Workers() {
		total += w.Ops
	}
	if total < 30 {
		t.Fatalf("workers serviced only %d ops", total)
	}
}
