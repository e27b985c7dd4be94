package experiments

import (
	"fmt"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/report"
	"aeolia/internal/sim"
	"aeolia/internal/vfs"
	"aeolia/internal/workload"
)

const ufsWorkers = 4

// buildFSMachine assembles a machine with appCores benchmark cores (plus
// dedicated uFS worker cores when needed) and the requested file system.
func buildFSMachine(kind machine.FSKind, appCores int) (*machine.Machine, *machine.FSInstance, []*sim.Core, error) {
	workers := 0
	if kind == machine.KindUFS {
		workers = ufsWorkers
	}
	m := machine.New(appCores+workers, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 20})
	opt := machine.FSOptions{Journals: 64, JournalBlocks: 2048, Cores: appCores + workers}
	for i := 0; i < workers; i++ {
		opt.UFSWorkerCores = append(opt.UFSWorkerCores, m.Eng.Core(appCores+i))
	}
	fi, err := m.BuildFS(kind, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	cores := make([]*sim.Core, appCores)
	for i := range cores {
		cores[i] = m.Eng.Core(i)
	}
	return m, fi, cores, nil
}

// teardown stops uFS workers (so later engine runs terminate) and unwinds.
func teardown(m *machine.Machine, fi *machine.FSInstance) {
	fi.Stop()
	m.Eng.Shutdown()
}

// Fig14 regenerates Figure 14: single-thread file system performance on
// data and metadata operations.
func Fig14() ([]*report.Table, error) {
	data := &report.Table{
		ID: "fig14", Title: "single-thread data operations",
		Columns: []string{"workload", "ext4", "f2fs", "aeofs", "ufs"},
	}
	meta := &report.Table{
		ID: "fig14", Title: "single-thread metadata operations (kops/s)",
		Columns: []string{"workload", "ext4", "f2fs", "aeofs", "ufs"},
	}

	dataRows := map[string][]string{}
	metaRows := map[string][]string{}
	dataOrder := []string{"4KB read (MB/s)", "4KB write (MB/s)", "2MB read (MB/s)", "2MB write (MB/s)"}
	metaOrder := []string{"open (5-deep)", "stat (5-deep)", "create", "unlink"}

	for _, kind := range machine.AllFSKinds {
		m, fi, cores, err := buildFSMachine(kind, 1)
		if err != nil {
			return nil, err
		}
		fsFor := fi.ForThread

		// --- data ops over a warm 64MB file ---
		for _, c := range []struct {
			name  string
			size  int
			write bool
			ops   int
		}{
			{"4KB read (MB/s)", 4096, false, 400},
			{"4KB write (MB/s)", 4096, true, 400},
			{"2MB read (MB/s)", 2 << 20, false, 30},
			{"2MB write (MB/s)", 2 << 20, true, 30},
		} {
			c := c
			barrier := sim.NewBarrier(len(cores))
			spec := &workload.ParallelSpec{
				Eng: m.Eng, Cores: cores, FSFor: fsFor,
				Body: func(env *sim.Env, fs vfs.FileSystem, tid int) (*workload.Result, error) {
					job := &workload.FileFioJob{
						Name: c.name, FS: fs, Path: fmt.Sprintf("/f14-%s", sizeName(c.size)),
						Write: c.write, Pattern: workload.PatternRand,
						IOSize: c.size, FileSize: 64 << 20, Ops: c.ops, Seed: int64(tid),
					}
					fd, err := job.Prepare(env)
					if err != nil {
						return nil, err
					}
					defer fs.Close(env, fd)
					barrier.Wait(env)
					return job.Run(env, fd)
				},
				Horizon: 30 * time.Second,
			}
			res, _, err := spec.Run()
			if err != nil {
				teardown(m, fi)
				return nil, fmt.Errorf("%s %s: %w", kind, c.name, err)
			}
			dataRows[c.name] = append(dataRows[c.name], fmt.Sprintf("%.0f", res.MBps()))
		}

		// --- metadata ops ---
		marks := workload.FXMarks()
		for _, mm := range []struct {
			label string
			mark  string
			ops   int
		}{
			{"open (5-deep)", "MRPL", 400},
			{"stat (5-deep)", "MRPL", 400}, // stat measured separately below
			{"create", "MWCL", 400},
			{"unlink", "MWUL", 400},
		} {
			if mm.label == "stat (5-deep)" {
				// Dedicated stat loop over the MRPL layout.
				spec := &workload.ParallelSpec{
					Eng: m.Eng, Cores: cores, FSFor: fsFor,
					Body: func(env *sim.Env, fs vfs.FileSystem, tid int) (*workload.Result, error) {
						res := &workload.Result{Name: "stat"}
						start := env.Now()
						for i := 0; i < mm.ops; i++ {
							if _, err := fs.Stat(env, "/mrpl0/d0/d1/d2/d3/d4/f"); err != nil {
								return nil, err
							}
							res.Ops++
						}
						res.Elapsed = env.Now() - start
						return res, nil
					},
					Horizon: 30 * time.Second,
				}
				res, _, err := spec.Run()
				if err != nil {
					teardown(m, fi)
					return nil, err
				}
				metaRows[mm.label] = append(metaRows[mm.label], fmt.Sprintf("%.0f", res.KOpsPerSec()))
				continue
			}
			res, err := workload.RunFXMark(m.Eng, cores, fsFor, marks[mm.mark], mm.ops, 30*time.Second)
			if err != nil {
				teardown(m, fi)
				return nil, fmt.Errorf("%s %s: %w", kind, mm.mark, err)
			}
			metaRows[mm.label] = append(metaRows[mm.label], fmt.Sprintf("%.0f", res.KOpsPerSec()))
		}
		teardown(m, fi)
	}

	for _, name := range dataOrder {
		data.AddRow(append([]string{name}, dataRows[name]...)...)
	}
	for _, name := range metaOrder {
		meta.AddRow(append([]string{name}, metaRows[name]...)...)
	}
	data.Note("paper: AeoFS up to 12.6x/12.8x over ext4/f2fs at 4KB, ~1.6x at 2MB, ~4x over uFS")
	meta.Note("paper: AeoFS up to 7.1x/10.6x/21.3x over ext4/f2fs/uFS on metadata")
	return []*report.Table{data, meta}, nil
}

// Fig15 regenerates Figure 15: multi-thread data-path scalability.
func Fig15() ([]*report.Table, error) {
	threads := []int{1, 4, 16, 32}
	var tables []*report.Table
	for _, c := range []struct {
		name  string
		size  int
		write bool
		ops   int
	}{
		{"4KB read", 4096, false, 300},
		{"4KB write", 4096, true, 300},
		{"2MB read", 2 << 20, false, 15},
		{"2MB write", 2 << 20, true, 15},
	} {
		t := &report.Table{
			ID: "fig15", Title: fmt.Sprintf("%s scalability (aggregate GiB/s)", c.name),
			Columns: append([]string{"fs"}, intCols(threads)...),
		}
		for _, kind := range machine.AllFSKinds {
			row := []string{string(kind)}
			for _, n := range threads {
				m, fi, cores, err := buildFSMachine(kind, n)
				if err != nil {
					return nil, err
				}
				fsFor := fi.ForThread
				c := c
				barrier := sim.NewBarrier(n)
				spec := &workload.ParallelSpec{
					Eng: m.Eng, Cores: cores, FSFor: fsFor,
					Body: func(env *sim.Env, fs vfs.FileSystem, tid int) (*workload.Result, error) {
						// Private per-thread file: the paper's
						// fio file-per-job setup.
						job := &workload.FileFioJob{
							Name: c.name, FS: fs, Path: fmt.Sprintf("/f15-t%d", tid),
							Write: c.write, Pattern: workload.PatternRand,
							IOSize: c.size, FileSize: 8 << 20, Ops: c.ops, Seed: int64(tid),
						}
						fd, err := job.Prepare(env)
						if err != nil {
							return nil, err
						}
						defer fs.Close(env, fd)
						// All threads finish setup before the
						// measured phase starts.
						barrier.Wait(env)
						return job.Run(env, fd)
					},
					Horizon: 120 * time.Second,
				}
				res, _, err := spec.Run()
				teardown(m, fi)
				if err != nil {
					return nil, fmt.Errorf("%s %s %dT: %w", kind, c.name, n, err)
				}
				row = append(row, fmt.Sprintf("%.2f", res.GiBps()))
			}
			t.AddRow(row...)
		}
		t.Note("paper at 64T/2MB write: AeoFS 19.1x ext4, 28.9x f2fs, 8.4x uFS")
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig16 regenerates Figure 16: FXMARK metadata scalability.
func Fig16() ([]*report.Table, error) {
	threads := []int{1, 4, 16, 32}
	marks := workload.FXMarks()
	var tables []*report.Table
	for _, name := range workload.FXMarkOrder {
		t := &report.Table{
			ID: "fig16", Title: fmt.Sprintf("%s (kops/s aggregate)", name),
			Columns: append([]string{"fs"}, intCols(threads)...),
		}
		for _, kind := range machine.AllFSKinds {
			row := []string{string(kind)}
			for _, n := range threads {
				m, fi, cores, err := buildFSMachine(kind, n)
				if err != nil {
					return nil, err
				}
				res, err := workload.RunFXMark(m.Eng, cores, fi.ForThread, marks[name], 150, 120*time.Second)
				teardown(m, fi)
				if err != nil {
					return nil, fmt.Errorf("%s %s %dT: %w", kind, name, n, err)
				}
				row = append(row, fmt.Sprintf("%.0f", res.KOpsPerSec()))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	if len(tables) > 0 {
		tables[0].Note("paper MWCL: AeoFS 2.8x/21.9x/31.9x over ext4/f2fs/uFS; uFS flat (single metadata master)")
	}
	return tables, nil
}

// Tab6 regenerates Table 6: the cost of two instances concurrently
// updating the same file or directory.
func Tab6() ([]*report.Table, error) {
	t := &report.Table{
		ID: "tab6", Title: "two instances updating the same file/directory",
		Columns: []string{"workload", "ext4", "f2fs", "aeofs", "ufs"},
	}
	rows := map[string][]string{}
	order := []string{"4KB append (MiB/s)", "create (kop/s)", "remove (kop/s)"}

	for _, kind := range machine.AllFSKinds {
		m, fi, cores, err := buildFSMachine(kind, 2)
		if err != nil {
			return nil, err
		}
		// For AeoFS, the second instance is a separate process with its
		// own auxiliary state over the shared trusted layer — the
		// configuration that pays the §9.4 sharing cost.
		fsFor := fi.ForThread
		if kind == machine.KindAeoFS {
			p2, err := m.Launch("tenantB", fi.Proc.Proc.Partition, fi.Proc.Driver.Config())
			if err != nil {
				teardown(m, fi)
				return nil, err
			}
			fsB := &vfs.AeoFSAdapter{FS: aeofs.NewFS(fi.Trust, p2.Driver, 2)}
			fsA := fi.FS
			fsFor = func(tid int) vfs.FileSystem {
				if tid == 0 {
					return fsA
				}
				return fsB
			}
		}

		// (1) Both append 4KB to the same file (target 4MB combined).
		prepDone := false
		m.Eng.Spawn("tab6-prep", cores[0], func(env *sim.Env) {
			defer func() { prepDone = true }()
			fs := fsFor(0)
			if init, ok := fs.(vfs.PerThreadInit); ok {
				init.InitThread(env)
			}
			fd, e := fs.Open(env, "/tab6-shared", vfs.O_CREATE|vfs.O_RDWR)
			if e == nil {
				fs.Close(env, fd)
			}
			fs.Mkdir(env, "/tab6-dir")
			// Two AeoFS tenants: the second needs write access to the
			// shared file and directory.
			if a, ok := fs.(*vfs.AeoFSAdapter); ok {
				const rw = 0o606
				a.FS.Chmod(env, "/tab6-shared", rw)
				a.FS.Chmod(env, "/tab6-dir", rw)
			}
		})
		for !prepDone {
			m.Eng.Run(m.Eng.Now() + 50*time.Millisecond)
		}

		appendOps := 512 // x2 threads x4KB = 4MB
		spec := &workload.ParallelSpec{
			Eng: m.Eng, Cores: cores, FSFor: fsFor,
			Body: func(env *sim.Env, fs vfs.FileSystem, tid int) (*workload.Result, error) {
				res := &workload.Result{Name: "append"}
				fd, err := fs.Open(env, "/tab6-shared", vfs.O_WRONLY|vfs.O_APPEND)
				if err != nil {
					return nil, err
				}
				defer fs.Close(env, fd)
				buf := make([]byte, 4096)
				start := env.Now()
				for i := 0; i < appendOps; i++ {
					if _, err := fs.Write(env, fd, buf); err != nil {
						return nil, err
					}
					res.Ops++
					res.Bytes += 4096
				}
				res.Elapsed = env.Now() - start
				return res, nil
			},
			Horizon: 120 * time.Second,
		}
		res, _, err := spec.Run()
		if err != nil {
			teardown(m, fi)
			return nil, fmt.Errorf("%s tab6 append: %w", kind, err)
		}
		rows[order[0]] = append(rows[order[0]], fmt.Sprintf("%.1f", float64(res.Bytes)/(1<<20)/res.Elapsed.Seconds()))

		// (2) Create files in the shared directory, (3) remove them.
		createOps := 400
		spec = &workload.ParallelSpec{
			Eng: m.Eng, Cores: cores, FSFor: fsFor,
			Body: func(env *sim.Env, fs vfs.FileSystem, tid int) (*workload.Result, error) {
				res := &workload.Result{Name: "create"}
				start := env.Now()
				for i := 0; i < createOps; i++ {
					fd, err := fs.Open(env, fmt.Sprintf("/tab6-dir/t%d-%d", tid, i), vfs.O_CREATE|vfs.O_RDWR)
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
			Horizon: 120 * time.Second,
		}
		res, _, err = spec.Run()
		if err != nil {
			teardown(m, fi)
			return nil, fmt.Errorf("%s tab6 create: %w", kind, err)
		}
		rows[order[1]] = append(rows[order[1]], fmt.Sprintf("%.1f", res.KOpsPerSec()))

		spec = &workload.ParallelSpec{
			Eng: m.Eng, Cores: cores, FSFor: fsFor,
			Body: func(env *sim.Env, fs vfs.FileSystem, tid int) (*workload.Result, error) {
				res := &workload.Result{Name: "remove"}
				start := env.Now()
				for i := 0; i < createOps; i++ {
					if err := fs.Unlink(env, fmt.Sprintf("/tab6-dir/t%d-%d", tid, i)); err != nil {
						return nil, err
					}
					res.Ops++
				}
				res.Elapsed = env.Now() - start
				return res, nil
			},
			Horizon: 120 * time.Second,
		}
		res, _, err = spec.Run()
		teardown(m, fi)
		if err != nil {
			return nil, fmt.Errorf("%s tab6 remove: %w", kind, err)
		}
		rows[order[2]] = append(rows[order[2]], fmt.Sprintf("%.1f", res.KOpsPerSec()))
	}
	for _, name := range order {
		t.AddRow(append([]string{name}, rows[name]...)...)
	}
	t.Note("paper: AeoFS beats ext4/f2fs up to 1.5x/1.9x but trails uFS, whose centralized design avoids sharing synchronization")
	return []*report.Table{t}, nil
}
