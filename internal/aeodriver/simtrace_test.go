package aeodriver_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeokern"
	"aeolia/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestEngineTraceGolden pins what sim.Trace prints: the first 200 lines of a
// one-thread QD1 read loop (the blk_qd1 shape) must stay what the engine
// printed when the golden was recorded, line for line. The debug hook costs
// nothing while it is off; this is the check that it still says the same
// thing while it is on.
func TestEngineTraceGolden(t *testing.T) {
	const lines = 200
	var got []string
	sim.Trace = func(format string, args ...any) {
		if len(got) < lines {
			got = append(got, fmt.Sprintf(format, args...))
		}
	}
	defer func() { sim.Trace = nil }()

	m := newMachine(t, 1)
	p := launch(t, m, "app", aeokern.Partition{Blocks: 1 << 16, Writable: true}, aeodriver.Config{})
	m.Eng.Spawn("reader", m.Eng.Core(0), func(env *sim.Env) {
		if _, err := p.Driver.CreateQP(env); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		for i := 0; i < 32; i++ {
			if err := p.Driver.ReadBlk(env, uint64(i*37%1024), 1, buf); err != nil {
				t.Error(err)
				return
			}
		}
	})
	m.Run(0)
	if len(got) != lines {
		t.Fatalf("engine trace has %d lines, want at least %d", len(got), lines)
	}
	text := strings.Join(got, "\n") + "\n"

	golden := filepath.Join("testdata", "simtrace_qd1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if text != string(want) {
		wl := strings.Split(string(want), "\n")
		for i, l := range got {
			if i >= len(wl) || wl[i] != l {
				t.Fatalf("engine trace diverged from %s at line %d:\n got: %s\nwant: %s", golden, i+1, l, wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("engine trace diverged from %s", golden)
	}
}
