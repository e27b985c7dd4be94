package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aeolia/internal/report"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files from current output")

// deterministicTables drops wall-clock tables (ID suffix "_timing") — the
// only tables an experiment is allowed to vary between identical runs.
func deterministicTables(tables []*report.Table) []*report.Table {
	var out []*report.Table
	for _, tb := range tables {
		if !strings.HasSuffix(tb.ID, "_timing") {
			out = append(out, tb)
		}
	}
	return out
}

// figureCheck is everything one golden-backed figure is held to, computed
// once per test process: Run twice in this one process (the second run meets
// warmed pools, a grown heap and GC pressure, so equal output means the
// result depends on nothing but the inputs — not allocation addresses, map
// order, pool recycling or parallel-lane interleaving), then Trace once.
type figureCheck struct {
	id       string
	runErr   error     // a cell failed, or Run's acceptance predicate did
	text     string    // first run as the golden prints it
	json     [2][]byte // report JSON of each run
	traceErr error     // Trace's checks, nil when the figure has none
}

var figureChecks = map[string]*figureCheck{}

func figure(t *testing.T, id string) *figureCheck {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the figure's full sweep twice and its traced cell; skipped in -short")
	}
	if c := figureChecks[id]; c != nil {
		return c
	}
	e := Lookup(id)
	if e == nil {
		t.Fatalf("no experiment %q in the registry", id)
	}
	c := &figureCheck{id: id}
	figureChecks[id] = c
	for i := range c.json {
		tables, err := e.Run()
		if err != nil {
			c.runErr = err
			return c
		}
		tables = deterministicTables(tables)
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, tables); err != nil {
			c.runErr = err
			return c
		}
		c.json[i] = buf.Bytes()
		if i == 0 {
			var sb strings.Builder
			for _, tb := range tables {
				tb.Print(&sb)
			}
			c.text = sb.String()
		}
	}
	if e.Trace != nil {
		_, c.traceErr = e.Trace()
	}
	return c
}

// accepted: both runs completed and passed the figure's acceptance predicate.
func (c *figureCheck) accepted(t *testing.T) {
	t.Helper()
	if c.runErr != nil {
		t.Fatalf("%s: Run: %v", c.id, c.runErr)
	}
}

// deterministic: the two runs serialize to byte-identical report JSON.
func (c *figureCheck) deterministic(t *testing.T) {
	t.Helper()
	c.accepted(t)
	if !bytes.Equal(c.json[0], c.json[1]) {
		t.Errorf("%s: report JSON not byte-identical across in-process runs.\n--- first ---\n%s\n--- second ---\n%s",
			c.id, c.json[0], c.json[1])
	}
}

// golden: the first run matches the committed snapshot. The simulation is
// deterministic (virtual time, seeded jitter), so any drift in a cost model
// or a mechanism changes these numbers and fails loudly here. If the change
// is intentional, regenerate with
//
//	go test ./internal/experiments -run 'TestFigures/<id>' -update-golden
//
// and include the golden diff in the same commit so reviewers see the
// performance-model shift explicitly.
func (c *figureCheck) golden(t *testing.T) {
	t.Helper()
	c.accepted(t)
	path := filepath.Join("testdata", c.id+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(c.text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if c.text != string(want) {
		t.Errorf("%s output drifted from golden snapshot.\n--- got ---\n%s--- want ---\n%s", c.id, c.text, want)
	}
}

// traced: the figure's traced cell passed every Trace check.
func (c *figureCheck) traced(t *testing.T) {
	t.Helper()
	if c.traceErr != nil {
		t.Fatalf("%s: Trace: %v", c.id, c.traceErr)
	}
}

// TestFigures holds every golden-backed figure to its whole contract. The
// list is testdata/*.golden itself, so a figure cannot be left out of it by
// hand: a golden with no registry entry fails, and so does a figure with a
// traced cell and no golden.
func TestFigures(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no goldens under testdata (err %v)", err)
	}
	backed := map[string]bool{}
	for _, g := range goldens {
		id := strings.TrimSuffix(filepath.Base(g), ".golden")
		backed[id] = true
		if Lookup(id) == nil {
			t.Errorf("orphan golden %s: no experiment %q in the registry", g, id)
			continue
		}
		t.Run(id, func(t *testing.T) {
			c := figure(t, id)
			c.deterministic(t)
			c.golden(t)
			c.traced(t)
		})
	}
	for _, e := range All() {
		if e.Trace != nil && !backed[e.ID] {
			t.Errorf("%s has a traced cell but no testdata/%s.golden, so no test runs it", e.ID, e.ID)
		}
	}
}

// The names below predate TestFigures. The repository's test floor lets a PR
// retire only a few listed tests, so each stays as one step of its figure's
// shared figureCheck — no sweep runs again for them — and the criterion
// tests now read the predicate inside Run instead of re-running its cells.
// Retire them a few per PR.
func TestQDSweepGolden(t *testing.T)               { figure(t, "qdsweep").golden(t) }
func TestQDSweepBatchedSpeedupAtQD32(t *testing.T) { figure(t, "qdsweep").accepted(t) }
func TestQDSweepTraceCausalChains(t *testing.T)    { figure(t, "qdsweep").traced(t) }

func TestSvcScaleGolden(t *testing.T)            { figure(t, "svcscale").golden(t) }
func TestSvcScaleDeterministic(t *testing.T)     { figure(t, "svcscale").deterministic(t) }
func TestSvcScaleAdmissionCutsTail(t *testing.T) { figure(t, "svcscale").accepted(t) }
func TestSvcScale128TracedClean(t *testing.T)    { figure(t, "svcscale").traced(t) }

func TestFigCacheGolden(t *testing.T)           { figure(t, "fig_cache").golden(t) }
func TestFigCacheDeterministic(t *testing.T)    { figure(t, "fig_cache").deterministic(t) }
func TestFigCacheReadaheadSpeedup(t *testing.T) { figure(t, "fig_cache").accepted(t) }
func TestFigCacheTracedClean(t *testing.T)      { figure(t, "fig_cache").traced(t) }

func TestFigSloGolden(t *testing.T)                    { figure(t, "fig_slo").golden(t) }
func TestFigSloDeterministic(t *testing.T)             { figure(t, "fig_slo").deterministic(t) }
func TestFigSloEnforcementCutsUrgentTail(t *testing.T) { figure(t, "fig_slo").accepted(t) }
func TestFigSloTracedClean(t *testing.T)               { figure(t, "fig_slo").traced(t) }

func TestFigReplicationGolden(t *testing.T)        { figure(t, "fig_replication").golden(t) }
func TestFigReplicationDeterministic(t *testing.T) { figure(t, "fig_replication").deterministic(t) }
func TestFigReplicationTracedClean(t *testing.T)   { figure(t, "fig_replication").traced(t) }

func TestFigSimScaleGolden(t *testing.T) { figure(t, "fig_simscale").golden(t) }

func TestMDScaleGolden(t *testing.T)        { figure(t, "fig_mdscale").golden(t) }
func TestMDScaleDeterministic(t *testing.T) { figure(t, "fig_mdscale").deterministic(t) }
func TestMDScaleShardScaling(t *testing.T)  { figure(t, "fig_mdscale").accepted(t) }
func TestMDScaleTracedClean(t *testing.T)   { figure(t, "fig_mdscale").traced(t) }

func TestZeroCopyGolden(t *testing.T)           { figure(t, "fig_zerocopy").golden(t) }
func TestZeroCopyDeterministic(t *testing.T)    { figure(t, "fig_zerocopy").deterministic(t) }
func TestZeroCopyRingSpeedup(t *testing.T)      { figure(t, "fig_zerocopy").accepted(t) }
func TestZeroCopyCacheHitFlat(t *testing.T)     { figure(t, "fig_zerocopy").accepted(t) }
func TestZeroCopyTracedCopyBudget(t *testing.T) { figure(t, "fig_zerocopy").traced(t) }
