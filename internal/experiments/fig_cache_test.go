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

// TestFigCacheReadaheadSpeedup pins the tentpole acceptance criterion:
// at the default residency budget, sequential buffered reads with
// asynchronous read-ahead must run at least 2x the throughput of the
// synchronous demand-fetch configuration.
func TestFigCacheReadaheadSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("two sequential cells; skipped in -short")
	}
	off, err := figCacheRun("seqread", fcDefaultCache, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	on, err := figCacheRun("seqread", fcDefaultCache, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The experiment's own gate: >= 2x at this budget, the window engaged,
	// waste bounded.
	if err := fcGate("seqread", fcDefaultCache, off, on); err != nil {
		t.Fatal(err)
	}
	t.Logf("sequential read-ahead speedup: %.2fx (%.1f vs %.1f MB/s, %d pages issued, %d hits, %d wasted)",
		on.Res.MBps()/off.Res.MBps(), on.Res.MBps(), off.Res.MBps(),
		on.Stats.ReadaheadIssued, on.Stats.ReadaheadHits, on.Stats.ReadaheadWaste)
}

// TestFigCacheTracedClean runs the sequential read-ahead cell fully traced
// and replays the stream through the analyzer: the residency budget is
// never exceeded, no completion lands in an evicted page's buffer, every
// dirty eviction is preceded by a covering write-back run, and all I/O
// chains stay causal.
func TestFigCacheTracedClean(t *testing.T) {
	if testing.Short() {
		t.Skip("traced sequential cell; skipped in -short")
	}
	tr, r, err := FigCacheTrace()
	if err != nil {
		t.Fatal(err)
	}
	an := trace.Analyze(tr.Events())
	for _, v := range an.Violations {
		t.Errorf("violation: %+v", v)
	}
	counts := map[trace.Type]int{}
	for _, e := range tr.Events() {
		counts[e.Type]++
	}
	for _, typ := range []trace.Type{trace.CacheBudget, trace.CacheInsert,
		trace.CacheEvict, trace.ReadaheadIssue, trace.ReadaheadHit, trace.WritebackRun} {
		if counts[typ] == 0 {
			t.Errorf("no %v events in the traced cell", typ)
		}
	}
	if r.Stats.ResidentHWM > fcDefaultCache {
		t.Fatalf("resident high-water mark %d exceeds the %d-byte budget",
			r.Stats.ResidentHWM, fcDefaultCache)
	}
}

// TestFigCacheDeterministic pins the acceptance criterion that the whole
// cache sweep — read-ahead completions, CLOCK decisions, background
// flusher scheduling — replays byte-identically: two full runs must
// serialize to the same report JSON.
func TestFigCacheDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cache sweep twice; skipped in -short")
	}
	render := func() []byte {
		t.Helper()
		tables, err := FigCache()
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
		t.Fatalf("fig_cache report JSON not byte-identical across runs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestFigCacheGolden snapshots the rendered sweep table; any drift in the
// cache, read-ahead, eviction, or write-back models fails loudly here.
// Regenerate intentionally with:
//
//	go test ./internal/experiments -run TestFigCacheGolden -update-golden
func TestFigCacheGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full cache sweep; skipped in -short")
	}
	tables, err := FigCache()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tb := range tables {
		tb.Print(&sb)
	}
	got := sb.String()

	golden := filepath.Join("testdata", "fig_cache.golden")
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
		t.Errorf("fig_cache output drifted from golden snapshot.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
