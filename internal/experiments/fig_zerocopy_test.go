package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aeolia/internal/report"
	"aeolia/internal/trace"
)

// TestZeroCopyRingSpeedup pins the tentpole acceptance criterion for the
// block half: the lock-free zero-copy staging ring sustains at least 1.5x
// the batched+coalesced baseline's 512B read IOPS at QD32 on the wide
// device, and actually stages commands (the ring engaged, not a fallback).
func TestZeroCopyRingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("two full QD32 windows; skipped in -short")
	}
	batched, _, err := zcRingRun("batched", zcQD, nil)
	if err != nil {
		t.Fatal(err)
	}
	ring, staged, err := zcRingRun("ring", zcQD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if staged == 0 {
		t.Fatal("ring datapath never staged a command")
	}
	if ring < 1.5*batched {
		t.Fatalf("ring %.1f KIOPS vs batched %.1f KIOPS — want >= 1.5x", ring, batched)
	}
	t.Logf("QD%d: batched %.1f KIOPS, ring %.1f KIOPS (%.2fx, %d staged)",
		zcQD, batched, ring, ring/batched, staged)
}

// TestZeroCopyCacheHitFlat pins the cache half: epoch reads hold per-core
// cache-hit throughput flat (within 10%) from 1 to 8 reader cores, and the
// lock-free path engages on every reader.
func TestZeroCopyCacheHitFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("two full cache cells; skipped in -short")
	}
	fast1, err := zcCacheRun(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fast8, err := zcCacheRun(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fast1.EpochReads == 0 || fast8.EpochReads == 0 {
		t.Fatalf("epoch fast-read path never engaged: %d/%d fast reads",
			fast1.EpochReads, fast8.EpochReads)
	}
	if fast8.PerCoreKIOPS < 0.9*fast1.PerCoreKIOPS {
		t.Fatalf("fast per-core throughput not flat: 1 core %.1f, 8 cores %.1f KIOPS/core",
			fast1.PerCoreKIOPS, fast8.PerCoreKIOPS)
	}
	t.Logf("per-core KIOPS: 1c %.1f, 8c %.1f (%.2f eff)",
		fast1.PerCoreKIOPS, fast8.PerCoreKIOPS, fast8.PerCoreKIOPS/fast1.PerCoreKIOPS)
}

// TestZeroCopyTracedCopyBudget runs both zero-copy mechanisms fully traced
// and holds the copy-accounting invariant: every traced chain stays within
// its announced per-path budget (at most one payload copy end to end), and
// the trace actually contains copy and handoff events — an empty trace
// would pass the budget vacuously.
func TestZeroCopyTracedCopyBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("traced ring + cache cells; skipped in -short")
	}
	ringTr, cacheTr, _, _, err := FigZerocopyTrace()
	if err != nil {
		t.Fatal(err)
	}
	if an := trace.Analyze(ringTr.Events()); len(an.Violations) != 0 {
		for _, v := range an.Violations {
			t.Errorf("ring violation: %+v", v)
		}
	}
	an := trace.Analyze(cacheTr.Events())
	for _, v := range an.Violations {
		t.Errorf("cache violation: %+v", v)
	}
	chains, copies, maxPerChain := an.CopyStats()
	if chains == 0 {
		t.Fatal("no copy chains traced")
	}
	if maxPerChain > 1 {
		t.Fatalf("a chain performed %d payload copies — want <= 1 end to end", maxPerChain)
	}
	var bufCopies, handoffs uint64
	for _, ev := range cacheTr.Events() {
		switch ev.Type {
		case trace.BufCopy:
			bufCopies++
		case trace.BufHandoff:
			handoffs++
		}
	}
	if bufCopies == 0 || handoffs == 0 {
		t.Fatalf("copy accounting unexercised: %d BufCopy, %d BufHandoff events",
			bufCopies, handoffs)
	}
	t.Logf("%d chains, %d copies (max %d/chain), %d handoffs",
		chains, copies, maxPerChain, handoffs)
}

// TestZeroCopyDeterministic pins byte-identical replay: two full sweeps
// must serialize to the same report JSON.
func TestZeroCopyDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep twice; skipped in -short")
	}
	render := func() []byte {
		t.Helper()
		tables, err := FigZerocopy()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, tables); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("zerocopy report JSON not byte-identical across runs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestZeroCopyGolden snapshots the rendered sweep; any drift in the ring
// datapath or the cache cost model fails loudly. Regenerate
// intentionally with:
//
//	go test ./internal/experiments -run TestZeroCopyGolden -update-golden
func TestZeroCopyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	tables, err := FigZerocopy()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tb := range tables {
		tb.Print(&sb)
	}
	got := sb.String()

	golden := filepath.Join("testdata", "fig_zerocopy.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("zerocopy output drifted from golden snapshot.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
