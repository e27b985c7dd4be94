package experiments

import (
	"testing"
	"time"

	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

// measure4K returns the steady-state single-task 4KB read latency of the
// named stack.
func measure4K(t *testing.T, stack string) time.Duration {
	t.Helper()
	m := machine.New(1, nvme.Config{BlockSize: 4096, NumBlocks: 1 << 16})
	defer m.Eng.Shutdown()
	io, err := newBlockIO(m, stack)
	if err != nil {
		t.Fatal(err)
	}
	var avg time.Duration
	m.Eng.Spawn("fio", m.Eng.Core(0), func(env *sim.Env) {
		if err := io.Init(env); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		io.Read(env, 0, 1, buf) // warm-up
		start := env.Now()
		const n = 20
		for i := 0; i < n; i++ {
			if err := io.Read(env, uint64(i), 1, buf); err != nil {
				t.Error(err)
				return
			}
		}
		avg = (env.Now() - start) / n
	})
	m.Run(0)
	return avg
}

// TestFigure2Calibration verifies that the baseline stacks land on the
// paper's Figure 2 latencies for a single-task 4KB read.
func TestFigure2Calibration(t *testing.T) {
	cases := []struct {
		stack    string
		lo, hi   time.Duration
		paperVal string
	}{
		{"spdk", 4000 * time.Nanosecond, 4400 * time.Nanosecond, "4.2µs"},
		{"iou_poll", 5200 * time.Nanosecond, 5600 * time.Nanosecond, "5.4µs"},
		{"iou_opt", 6100 * time.Nanosecond, 6500 * time.Nanosecond, "6.3µs"},
		{"iou_dfl", 7800 * time.Nanosecond, 8600 * time.Nanosecond, "8.2µs"},
		{"posix", 8700 * time.Nanosecond, 10500 * time.Nanosecond, "~2x AeoDriver"},
	}
	for _, c := range cases {
		got := measure4K(t, c.stack)
		if got < c.lo || got > c.hi {
			t.Errorf("%s 4KB read = %v, want in [%v, %v] (paper: %s)",
				c.stack, got, c.lo, c.hi, c.paperVal)
		} else {
			t.Logf("%s: %v (paper %s)", c.stack, got, c.paperVal)
		}
	}
}

// TestOrderingAcrossStacks pins the relative ordering the paper's analysis
// establishes: SPDK < iou_poll < iou_opt < iou_dfl < POSIX.
func TestOrderingAcrossStacks(t *testing.T) {
	spdk := measure4K(t, "spdk")
	poll := measure4K(t, "iou_poll")
	opt := measure4K(t, "iou_opt")
	dfl := measure4K(t, "iou_dfl")
	posix := measure4K(t, "posix")
	if !(spdk < poll && poll < opt && opt < dfl && dfl < posix) {
		t.Fatalf("ordering violated: spdk=%v poll=%v opt=%v dfl=%v posix=%v",
			spdk, poll, opt, dfl, posix)
	}
}

// TestPollingStarvesComputeTask reproduces Figure 5a's mechanism: a polling
// I/O task and a compute task sharing a core leaves the compute task far
// less CPU than an interrupt-based (eager-sleep) I/O task does.
func TestPollingStarvesComputeTask(t *testing.T) {
	computeWork := func(stack string) time.Duration {
		m := machine.New(1, nvme.Config{BlockSize: 4096, NumBlocks: 1 << 20})
		defer m.Eng.Shutdown()
		io, err := newBlockIO(m, stack)
		if err != nil {
			t.Fatal(err)
		}
		horizon := 200 * time.Millisecond
		var compute *sim.Task
		m.Eng.Spawn("io", m.Eng.Core(0), func(env *sim.Env) {
			io.Init(env)
			buf := make([]byte, 128*1024)
			for env.Now() < horizon {
				if err := io.Read(env, 0, 32, buf); err != nil {
					t.Error(err)
					return
				}
			}
		})
		compute = m.Eng.Spawn("swaptions", m.Eng.Core(0), func(env *sim.Env) {
			for env.Now() < horizon {
				env.Exec(100 * time.Microsecond)
			}
		})
		m.Run(horizon)
		return compute.CPUTime
	}
	pollCPU := computeWork("spdk")
	intrCPU := computeWork("iou_dfl")
	if intrCPU <= pollCPU {
		t.Fatalf("compute CPU under interrupt stack (%v) should exceed polling stack (%v)",
			intrCPU, pollCPU)
	}
	// The interrupt stack should leave the compute task a large majority
	// of the cycles the I/O task spends waiting.
	if float64(intrCPU) < 1.3*float64(pollCPU) {
		t.Fatalf("interrupt benefit too small: %v vs %v", intrCPU, pollCPU)
	}
}

// TestPollingTailLatencyWithTwoIOTasks reproduces Figure 5b's mechanism:
// two polling I/O tasks on one core suffer multi-millisecond tail latency
// (a task is preempted right after issuing and waits out time slices),
// while two interrupt-based tasks do not.
func TestPollingTailLatencyWithTwoIOTasks(t *testing.T) {
	maxLat := func(stack string) time.Duration {
		m := machine.New(1, nvme.Config{BlockSize: 4096, NumBlocks: 1 << 20})
		defer m.Eng.Shutdown()
		io, err := newBlockIO(m, stack)
		if err != nil {
			t.Fatal(err)
		}
		horizon := 300 * time.Millisecond
		var worst time.Duration
		for i := 0; i < 2; i++ {
			m.Eng.Spawn("io", m.Eng.Core(0), func(env *sim.Env) {
				io.Init(env)
				buf := make([]byte, 4096)
				for env.Now() < horizon {
					start := env.Now()
					if err := io.Read(env, 0, 1, buf); err != nil {
						t.Error(err)
						return
					}
					if lat := env.Now() - start; lat > worst {
						worst = lat
					}
				}
			})
		}
		m.Run(horizon)
		return worst
	}
	pollWorst := maxLat("spdk")
	intrWorst := maxLat("iou_opt")
	if pollWorst < time.Millisecond {
		t.Fatalf("polling tail = %v, expected multi-ms (slice-wait pathology)", pollWorst)
	}
	if intrWorst >= pollWorst/10 {
		t.Fatalf("interrupt tail (%v) should be >=10x better than polling (%v)", intrWorst, pollWorst)
	}
}
