package experiments

import (
	"fmt"
	"time"

	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/report"
	"aeolia/internal/sim"
	"aeolia/internal/timing"
	"aeolia/internal/workload"
)

// paperFig2 records the paper's Figure 2 values for side-by-side reporting.
var paperFig2 = map[string]string{
	"iou_dfl":  "8.2",
	"iou_opt":  "6.3",
	"iou_poll": "5.4",
	"aeolia":   "4.8",
	"spdk":     "4.2",
	"posix":    "(not shown)",
}

// Fig2 regenerates Figure 2: average 4KB read latency per stack.
func Fig2() ([]*report.Table, error) {
	t := &report.Table{
		ID: "fig2", Title: "Average access latency of a 4KB read request",
		Columns: []string{"stack", "measured (us)", "paper (us)"},
	}
	for _, name := range []string{"iou_dfl", "iou_opt", "iou_poll", "aeolia", "spdk"} {
		res, err := runFioSingle(name, false, 4096, 4096, 200)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, usec(res.Latency.Mean()), paperFig2[name])
	}
	t.Note("single task, qd=1, 4KB random read on the P5800X model")
	return []*report.Table{t}, nil
}

// Fig3 regenerates Figure 3: where the 4KB read time goes, derived by
// differencing the measured stacks exactly as the paper's analysis does.
func Fig3() ([]*report.Table, error) {
	lat := map[string]time.Duration{}
	for _, name := range []string{"iou_dfl", "iou_opt", "iou_poll", "spdk"} {
		res, err := runFioSingle(name, false, 4096, 4096, 200)
		if err != nil {
			return nil, err
		}
		lat[name] = res.Latency.Mean()
	}
	dev := nvme.P5800X().ServiceTime(nvme.OpRead, 4096)
	t := &report.Table{
		ID: "fig3", Title: "Overhead breakdown of a 4KB read access",
		Columns: []string{"component", "measured (us)", "paper (us)"},
	}
	t.AddRow("device access", usec(dev), "~3.5")
	t.AddRow("SPDK software (kernel-bypass floor)", usec(lat["spdk"]-dev), "~0.7")
	t.AddRow("kernel submission path (iou_poll - spdk)", usec(lat["iou_poll"]-lat["spdk"]), "1.2")
	t.AddRow("interrupt mechanism + bottom half (iou_opt - iou_poll)", usec(lat["iou_opt"]-lat["iou_poll"]), "0.6 + 0.3")
	t.AddRow("thread scheduling policy (iou_dfl - iou_opt)", usec(lat["iou_dfl"]-lat["iou_opt"]), "1.8")
	t.Note("most interrupt overhead is the eager-sleep scheduling policy, not the interrupt itself (Finding #1)")
	return []*report.Table{t}, nil
}

// Fig4 regenerates Figure 4: the wakeup-path decomposition behind the 1.8us
// scheduling overhead.
func Fig4() ([]*report.Table, error) {
	// Measure the end-to-end scheduling overhead.
	dfl, err := runFioSingle("iou_dfl", false, 4096, 4096, 200)
	if err != nil {
		return nil, err
	}
	opt, err := runFioSingle("iou_opt", false, 4096, 4096, 200)
	if err != nil {
		return nil, err
	}
	measured := dfl.Latency.Mean() - opt.Latency.Mean()
	t := &report.Table{
		ID: "fig4", Title: "Interrupt overhead breakdown (Figure 4 wakeup path)",
		Columns: []string{"step", "model (us)", "paper (us)"},
	}
	t.AddRow("1. convert sleeping task to runnable (ttwu)", usec(timing.WakeupTTWU), "0.7")
	t.AddRow("2. update statistics leaving the idle task", usec(timing.IdleExit), "0.4")
	t.AddRow("3. schedule and context switch back", usec(timing.ContextSwitch), "0.7")
	t.AddRow("total (measured: iou_dfl - iou_opt)", usec(measured), "1.8")
	return []*report.Table{t}, nil
}

// Fig5 regenerates Figure 5: sharing a core between (a) one I/O-intensive
// and one compute-intensive task and (b) two I/O-intensive tasks.
func Fig5() ([]*report.Table, error) {
	const horizon = 200 * time.Millisecond
	stacks := []string{"iou_dfl", "iou_opt", "iou_poll", "spdk", "aeolia"}

	a := &report.Table{
		ID: "fig5", Title: "(a) one 128KB-read task + swaptions sharing a core",
		Columns: []string{"stack", "I/O MB/s", "compute iter/s"},
	}
	for _, name := range stacks {
		m := machine.New(1, blockDev(4096))
		io, err := newBlockIO(m, name)
		if err != nil {
			return nil, err
		}
		var ioRes *workload.Result
		var ioErr error
		m.Eng.Spawn("io", m.Eng.Core(0), func(env *sim.Env) {
			job := &workload.FioJob{
				Name: name, IO: io, Pattern: workload.PatternRand,
				BlockSizeBytes: 128 << 10, BlockBytes: 4096,
				Span: m.Dev.NumBlocks() / 2, Until: horizon, Ops: 1 << 30, Seed: 3,
			}
			ioRes, ioErr = job.Run(env)
		})
		comp := &workload.ComputeTask{Until: horizon}
		m.Eng.Spawn("swaptions", m.Eng.Core(0), func(env *sim.Env) { comp.Run(env) })
		m.Eng.Run(horizon + 50*time.Millisecond)
		m.Eng.Shutdown()
		if ioErr != nil {
			return nil, ioErr
		}
		a.AddRowf(name, ioRes.MBps(), float64(comp.Iterations)/horizon.Seconds())
	}
	a.Note("polling stacks starve the compute task; interrupt stacks coordinate")

	b := &report.Table{
		ID: "fig5", Title: "(b) two 4KB-read tasks sharing a core",
		Columns: []string{"stack", "total KIOPS", "p99 (us)", "max (ms)"},
	}
	for _, name := range stacks {
		m := machine.New(1, blockDev(4096))
		io, err := newBlockIO(m, name)
		if err != nil {
			return nil, err
		}
		merged := &workload.Result{}
		var jerr error
		for i := 0; i < 2; i++ {
			i := i
			m.Eng.Spawn(fmt.Sprintf("io%d", i), m.Eng.Core(0), func(env *sim.Env) {
				job := &workload.FioJob{
					Name: name, IO: io, Pattern: workload.PatternRand,
					BlockSizeBytes: 4096, BlockBytes: 4096,
					Span: m.Dev.NumBlocks() / 2, Until: horizon, Ops: 1 << 30,
					Seed: int64(i),
				}
				res, err := job.Run(env)
				if err != nil {
					jerr = err
					return
				}
				merged.Ops += res.Ops
				merged.Latency.Merge(&res.Latency)
			})
		}
		m.Eng.Run(horizon + 50*time.Millisecond)
		m.Eng.Shutdown()
		if jerr != nil {
			return nil, jerr
		}
		b.AddRow(name,
			fmt.Sprintf("%.0f", float64(merged.Ops)/horizon.Seconds()/1e3),
			usec(merged.Latency.P99()),
			fmt.Sprintf("%.2f", float64(merged.Latency.Max())/float64(time.Millisecond)))
	}
	b.Note("polling suffers multi-ms tails: a task preempted after issuing waits out whole time slices")
	return []*report.Table{a, b}, nil
}

// Fig10 regenerates Figure 10: single-thread sweeps over I/O size.
func Fig10() ([]*report.Table, error) {
	sizes := []int{512, 4096, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	stacks := []string{"posix", "iou_dfl", "iou_poll", "spdk", "aeolia"}
	var tables []*report.Table
	for _, write := range []bool{false, true} {
		op := "read"
		if write {
			op = "write"
		}
		t := &report.Table{
			ID: "fig10", Title: fmt.Sprintf("single-thread random %s sweep", op),
			Columns: []string{"size", "stack", "MB/s", "p50 (us)", "p99 (us)"},
		}
		for _, size := range sizes {
			blockSize := 4096
			if size < 4096 {
				blockSize = 512
			}
			ops := 200
			if size >= 256<<10 {
				ops = 80
			}
			for _, name := range stacks {
				res, err := runFioSingle(name, write, size, blockSize, ops)
				if err != nil {
					return nil, err
				}
				t.AddRow(sizeName(size), name,
					fmt.Sprintf("%.0f", res.MBps()),
					usec(res.Latency.Median()), usec(res.Latency.P99()))
			}
		}
		t.Note("AeoDriver ~2x POSIX at 512B and within ~15%% of SPDK everywhere (paper: 10.7%%-18.2%% worst case)")
		tables = append(tables, t)
	}
	return tables, nil
}

func sizeName(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Fig11 regenerates Figure 11: 4KB random read scaling with thread count.
func Fig11() ([]*report.Table, error) {
	threads := []int{1, 2, 4, 8, 16}
	stacks := []string{"posix", "iou_dfl", "iou_poll", "spdk", "aeolia"}
	t := &report.Table{
		ID: "fig11", Title: "multi-thread 4KB random read throughput (KIOPS)",
		Columns: append([]string{"stack"}, intCols(threads)...),
	}
	for _, name := range stacks {
		row := []string{name}
		for _, n := range threads {
			m := machine.New(n, blockDev(4096))
			io, err := newBlockIO(m, name)
			if err != nil {
				return nil, err
			}
			const horizon = 50 * time.Millisecond
			var total uint64
			var jerr error
			for i := 0; i < n; i++ {
				i := i
				m.Eng.Spawn(fmt.Sprintf("fio%d", i), m.Eng.Core(i), func(env *sim.Env) {
					job := &workload.FioJob{
						Name: name, IO: io, Pattern: workload.PatternRand,
						BlockSizeBytes: 4096, BlockBytes: 4096,
						Span: m.Dev.NumBlocks() / 2, Until: horizon, Ops: 1 << 30,
						Seed: int64(i),
					}
					res, err := job.Run(env)
					if err != nil {
						jerr = err
						return
					}
					total += res.Ops
				})
			}
			m.Eng.Run(horizon + 20*time.Millisecond)
			m.Eng.Shutdown()
			if jerr != nil {
				return nil, jerr
			}
			row = append(row, fmt.Sprintf("%.0f", float64(total)/horizon.Seconds()/1e3))
		}
		t.AddRow(row...)
	}
	t.Note("AeoDriver and SPDK saturate the device by 8 threads; kernel stacks need 16")
	return []*report.Table{t}, nil
}

func intCols(ns []int) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = fmt.Sprintf("%dT", n)
	}
	return out
}
