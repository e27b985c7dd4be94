package workload_test

import (
	"testing"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/vfs"
	"aeolia/internal/workload"
)

func TestLatencyRecorderPercentiles(t *testing.T) {
	var r workload.LatencyRecorder
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Microsecond)
	}
	if r.Count() != 100 {
		t.Fatalf("Count = %d", r.Count())
	}
	if m := r.Median(); m < 49*time.Microsecond || m > 51*time.Microsecond {
		t.Fatalf("Median = %v", m)
	}
	if p := r.P99(); p < 98*time.Microsecond || p > 100*time.Microsecond {
		t.Fatalf("P99 = %v", p)
	}
	if r.Max() != 100*time.Microsecond {
		t.Fatalf("Max = %v", r.Max())
	}
	if r.Mean() != 50500*time.Nanosecond {
		t.Fatalf("Mean = %v", r.Mean())
	}
	var other workload.LatencyRecorder
	other.Record(time.Millisecond)
	r.Merge(&other)
	if r.Max() != time.Millisecond {
		t.Fatalf("Max after merge = %v", r.Max())
	}
}

func TestResultRates(t *testing.T) {
	r := &workload.Result{Ops: 1000, Bytes: 4096 * 1000, Elapsed: time.Second}
	if r.OpsPerSec() != 1000 {
		t.Fatalf("OpsPerSec = %v", r.OpsPerSec())
	}
	if r.MBps() < 4.0 || r.MBps() > 4.2 {
		t.Fatalf("MBps = %v", r.MBps())
	}
	empty := &workload.Result{}
	if empty.OpsPerSec() != 0 || empty.MBps() != 0 {
		t.Fatal("zero-elapsed rates must be 0")
	}
}

// spdkIO is the SPDK baseline on m (the stack table's "spdk" row).
func spdkIO(t *testing.T, m *machine.Machine) *workload.DriverIO {
	t.Helper()
	p, err := m.LaunchStack("spdk")
	if err != nil {
		t.Fatal(err)
	}
	return &workload.DriverIO{Driver: p.Driver}
}

func TestFioJobSequentialAndRandom(t *testing.T) {
	for _, pattern := range []workload.FioPattern{workload.PatternSeq, workload.PatternRand} {
		m := machine.New(1, nvme.Config{BlockSize: 4096, NumBlocks: 1 << 14})
		io := spdkIO(t, m)
		var res *workload.Result
		var rerr error
		m.Eng.Spawn("fio", m.Eng.Core(0), func(env *sim.Env) {
			job := &workload.FioJob{
				Name: "t", IO: io, Pattern: pattern,
				BlockSizeBytes: 4096, BlockBytes: 4096, Span: 1 << 13, Ops: 50,
			}
			res, rerr = job.Run(env)
		})
		m.Eng.Run(0)
		m.Eng.Shutdown()
		if rerr != nil {
			t.Fatal(rerr)
		}
		if res.Ops != 50 || res.Bytes != 50*4096 {
			t.Fatalf("pattern %v: ops=%d bytes=%d", pattern, res.Ops, res.Bytes)
		}
		if res.Latency.Count() != 50 {
			t.Fatalf("latency samples = %d", res.Latency.Count())
		}
	}
}

func TestFioJobQueueDepthFasterThanSync(t *testing.T) {
	run := func(qd int) time.Duration {
		m := machine.New(1, nvme.Config{BlockSize: 4096, NumBlocks: 1 << 14})
		defer m.Eng.Shutdown()
		io := spdkIO(t, m)
		var elapsed time.Duration
		m.Eng.Spawn("fio", m.Eng.Core(0), func(env *sim.Env) {
			job := &workload.FioJob{
				Name: "t", IO: io, Pattern: workload.PatternRand,
				BlockSizeBytes: 4096, BlockBytes: 4096, Span: 1 << 13, Ops: 120, QD: qd,
			}
			res, err := job.Run(env)
			if err != nil {
				t.Error(err)
				return
			}
			elapsed = res.Elapsed
		})
		m.Eng.Run(0)
		return elapsed
	}
	sync := run(1)
	deep := run(8)
	if deep >= sync {
		t.Fatalf("qd=8 (%v) should beat qd=1 (%v)", deep, sync)
	}
	if float64(sync)/float64(deep) < 2 {
		t.Fatalf("qd=8 speedup only %.2fx", float64(sync)/float64(deep))
	}
}

func TestComputeTaskCountsIterations(t *testing.T) {
	m := machine.New(1, nvme.Config{BlockSize: 4096, NumBlocks: 1 << 12})
	defer m.Eng.Shutdown()
	c := &workload.ComputeTask{Quantum: time.Millisecond, Until: 50 * time.Millisecond}
	m.Eng.Spawn("comp", m.Eng.Core(0), func(env *sim.Env) { c.Run(env) })
	m.Eng.Run(time.Second)
	if c.Iterations < 45 || c.Iterations > 51 {
		t.Fatalf("Iterations = %d, want ~50", c.Iterations)
	}
}

func buildAeoFS(t *testing.T, cores int) (*machine.Machine, *machine.FSInstance, []*sim.Core) {
	t.Helper()
	m := machine.New(cores, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 17})
	t.Cleanup(m.Eng.Shutdown)
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cs := make([]*sim.Core, cores)
	for i := range cs {
		cs[i] = m.Eng.Core(i)
	}
	return m, fi, cs
}

func TestFXMarkSuiteRuns(t *testing.T) {
	marks := workload.FXMarks()
	if len(marks) != len(workload.FXMarkOrder) {
		t.Fatalf("suite has %d marks, order lists %d", len(marks), len(workload.FXMarkOrder))
	}
	for _, name := range workload.FXMarkOrder {
		name := name
		t.Run(name, func(t *testing.T) {
			m, fi, cores := buildAeoFS(t, 2)
			res, err := workload.RunFXMark(m.Eng, cores,
				func(int) vfs.FileSystem { return fi.FS }, marks[name], 20, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 40 { // 2 threads x 20 ops
				t.Fatalf("ops = %d, want 40", res.Ops)
			}
		})
	}
}

func TestFilebenchProfilesRun(t *testing.T) {
	profiles := workload.FilebenchProfiles(0.001)
	for _, name := range workload.FilebenchOrder {
		name := name
		t.Run(name, func(t *testing.T) {
			m, fi, cores := buildAeoFS(t, 2)
			res, err := workload.RunFilebench(m.Eng, cores,
				func(int) vfs.FileSystem { return fi.FS }, profiles[name], 3, 5*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 || res.Elapsed <= 0 {
				t.Fatalf("empty result: %+v", res)
			}
		})
	}
}

func TestParallelSpecMergesResults(t *testing.T) {
	m, fi, cores := buildAeoFS(t, 4)
	spec := &workload.ParallelSpec{
		Eng: m.Eng, Cores: cores,
		FSFor: func(int) vfs.FileSystem { return fi.FS },
		Body: func(env *sim.Env, fs vfs.FileSystem, tid int) (*workload.Result, error) {
			res := &workload.Result{Name: "x"}
			start := env.Now()
			env.Exec(time.Duration(tid+1) * time.Millisecond)
			res.Ops = uint64(tid + 1)
			res.Elapsed = env.Now() - start
			return res, nil
		},
		Horizon: time.Minute,
	}
	merged, per, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Ops != 1+2+3+4 {
		t.Fatalf("merged ops = %d, want 10", merged.Ops)
	}
	if len(per) != 4 {
		t.Fatalf("per-thread results = %d", len(per))
	}
	if merged.Elapsed < 4*time.Millisecond {
		t.Fatalf("merged elapsed = %v, want slowest thread's span", merged.Elapsed)
	}
}
