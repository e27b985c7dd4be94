package machine_test

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
)

// TestConformanceAcrossFileSystems drives the same workload through every
// evaluated file system and checks identical semantics.
func TestConformanceAcrossFileSystems(t *testing.T) {
	for _, kind := range machine.AllFSKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			m := machine.New(4, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 16})
			defer m.Eng.Shutdown()
			opt := machine.FSOptions{Journals: 8, JournalBlocks: 256}
			if kind == machine.KindUFS {
				opt.UFSWorkerCores = []*sim.Core{m.Eng.Core(2), m.Eng.Core(3)}
			}
			fi, err := m.BuildFS(kind, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer fi.Stop()
			fs := fi.FS

			var werr error
			m.Eng.Spawn("workload", m.Eng.Core(0), func(env *sim.Env) {
				werr = conformanceWorkload(env, fs)
			})
			m.Eng.Run(m.Eng.Now() + 10*time.Second)
			if werr != nil {
				t.Fatal(werr)
			}
		})
	}
}

func conformanceWorkload(env *sim.Env, fs vfs.FileSystem) error {
	if init, ok := fs.(vfs.PerThreadInit); ok {
		if err := init.InitThread(env); err != nil {
			return err
		}
	}
	if err := fs.Mkdir(env, "/w"); err != nil {
		return fmt.Errorf("mkdir: %w", err)
	}
	data := make([]byte, 3*4096+77)
	for i := range data {
		data[i] = byte(i * 13)
	}
	fd, err := fs.Open(env, "/w/f", vfs.O_CREATE|vfs.O_RDWR)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	if n, err := fs.Write(env, fd, data); err != nil || n != len(data) {
		return fmt.Errorf("write: n=%d err=%w", n, err)
	}
	if err := fs.Fsync(env, fd); err != nil {
		return fmt.Errorf("fsync: %w", err)
	}
	got := make([]byte, len(data))
	if n, err := fs.ReadAt(env, fd, got, 0); err != nil || n != len(data) {
		return fmt.Errorf("read: n=%d err=%w", n, err)
	}
	if !bytes.Equal(got, data) {
		return fmt.Errorf("data mismatch")
	}
	if err := fs.Close(env, fd); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	st, err := fs.Stat(env, "/w/f")
	if err != nil || st.Size != uint64(len(data)) || st.Dir {
		return fmt.Errorf("stat: %+v err=%w", st, err)
	}
	if err := fs.Rename(env, "/w/f", "/w/g"); err != nil {
		return fmt.Errorf("rename: %w", err)
	}
	ds, err := fs.ReadDir(env, "/w")
	if err != nil || len(ds) != 1 || ds[0].Name != "g" {
		return fmt.Errorf("readdir: %v err=%w", ds, err)
	}
	if err := fs.Truncate(env, "/w/g", 100); err != nil {
		return fmt.Errorf("truncate: %w", err)
	}
	if st, _ := fs.Stat(env, "/w/g"); st.Size != 100 {
		return fmt.Errorf("size after truncate = %d", st.Size)
	}
	if err := fs.Unlink(env, "/w/g"); err != nil {
		return fmt.Errorf("unlink: %w", err)
	}
	if err := fs.Rmdir(env, "/w"); err != nil {
		return fmt.Errorf("rmdir: %w", err)
	}
	return nil
}

// TestRelativeFSPerformance sanity-checks the headline single-thread
// ordering of Figure 14: AeoFS completes a small metadata+data workload in
// less virtual time than ext4, f2fs, and uFS.
func TestRelativeFSPerformance(t *testing.T) {
	elapsed := map[machine.FSKind]time.Duration{}
	for _, kind := range machine.AllFSKinds {
		m := machine.New(4, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 16})
		opt := machine.FSOptions{Journals: 8, JournalBlocks: 256}
		if kind == machine.KindUFS {
			opt.UFSWorkerCores = []*sim.Core{m.Eng.Core(2), m.Eng.Core(3)}
		}
		fi, err := m.BuildFS(kind, opt)
		if err != nil {
			t.Fatal(err)
		}
		fs := fi.FS
		var dur time.Duration
		var werr error
		m.Eng.Spawn("bench", m.Eng.Core(0), func(env *sim.Env) {
			if init, ok := fs.(vfs.PerThreadInit); ok {
				if werr = init.InitThread(env); werr != nil {
					return
				}
			}
			// Warm a file, then time cached 4KB reads + creates.
			fd, e := fs.Open(env, "/bench", vfs.O_CREATE|vfs.O_RDWR)
			if e != nil {
				werr = e
				return
			}
			buf := make([]byte, 4096)
			fs.Write(env, fd, buf)
			start := env.Now()
			for i := 0; i < 200; i++ {
				fs.ReadAt(env, fd, buf, 0)
			}
			for i := 0; i < 50; i++ {
				f2, e := fs.Open(env, fmt.Sprintf("/c%d", i), vfs.O_CREATE|vfs.O_RDWR)
				if e != nil {
					werr = e
					return
				}
				fs.Close(env, f2)
			}
			dur = env.Now() - start
			fs.Close(env, fd)
		})
		m.Eng.Run(m.Eng.Now() + 10*time.Second)
		fi.Stop()
		m.Eng.Shutdown()
		if werr != nil {
			t.Fatalf("%s: %v", kind, werr)
		}
		elapsed[kind] = dur
		t.Logf("%s: %v", kind, dur)
	}
	aeo := elapsed[machine.KindAeoFS]
	for _, other := range []machine.FSKind{machine.KindExt4, machine.KindF2FS, machine.KindUFS} {
		if elapsed[other] <= aeo {
			t.Errorf("%s (%v) should be slower than aeofs (%v)", other, elapsed[other], aeo)
		}
	}
	// The paper's single-thread data reads: AeoFS ~4-12x over kernel FSes.
	if ratio := float64(elapsed[machine.KindExt4]) / float64(aeo); ratio < 2 {
		t.Errorf("ext4/aeofs ratio = %.1f, want >= 2", ratio)
	}
}
