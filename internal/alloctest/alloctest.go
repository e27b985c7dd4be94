// Package alloctest is the tier-1 allocation gate: the steady-state paths
// that were made allocation-free stay that way, or the test that owns the
// path names it. The benchmark reports the same thing as host_allocs_per_op,
// but only when somebody runs it.
package alloctest

import (
	"runtime/debug"
	"testing"
)

// AtMost fails t if op — one steady-state operation, or ops of them when
// ops > 1 — allocates more than max objects per operation. op runs once to
// warm up (pools fill, slices reach their size) and then runs times. Under
// the race detector the runtime allocates on its own account, so the gate
// skips.
func AtMost(t *testing.T, max float64, ops int, op func()) {
	t.Helper()
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const runs = 20
	if got := testing.AllocsPerRun(runs, op) / float64(ops); got > max {
		t.Errorf("%.2f allocations per op, want at most %g", got, max)
	}
}

// More returns the operation "advance until *count has grown by n": for
// paths that only run inside a simulation, where a task body counts its own
// cycles and advance runs the engine a little further. Keep advance's slice
// short against a cycle; what it overshoots is counted but not divided by.
func More(count *int, n int, advance func()) func() {
	return func() {
		target := *count + n
		for calls := 0; *count < target; calls++ {
			if calls > 1000*n {
				panic("alloctest: the counter stopped advancing")
			}
			advance()
		}
	}
}

// raceEnabled reports whether the test binary was built with -race. The
// build records it; a file with a race build tag would say the same.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
