package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func durs(ns ...int64) []time.Duration {
	out := make([]time.Duration, len(ns))
	for i, n := range ns {
		out[i] = time.Duration(n)
	}
	return out
}

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentilePooledAndRefined(t *testing.T) {
	// Two repetitions pool into one sample set; order does not matter.
	pooled := poolSorted(durs(50, 10, 30), durs(40, 20))
	if len(pooled) != 5 || pooled[0] != 10 || pooled[4] != 50 {
		t.Fatalf("pooled = %v", pooled)
	}
	// Distinct values: rank 2.5 of 5 lies halfway through the third value's
	// 1 ns cell.
	if got := percentile(pooled, 50); got != 30 {
		t.Errorf("p50 = %g, want 30", got)
	}
	if got := percentile(pooled, 100); got != 50.5 {
		t.Errorf("p100 = %g, want 50.5", got)
	}
	// A tie group of four: rank 2 of 4 lies halfway through the cell.
	tie := durs(7, 7, 7, 7)
	if got := percentile(tie, 50); got != 7 {
		t.Errorf("p50 of ties = %g, want 7", got)
	}
	// One more sample at the median value moves the estimate, which plain
	// nearest rank (7 either way) cannot show.
	a := percentile(durs(5, 7, 7, 9, 9), 50)
	b := percentile(durs(5, 7, 7, 7, 9), 50)
	if a == b || a < 6.5 || a > 7.5 || b < 6.5 || b > 7.5 {
		t.Errorf("refined medians %g and %g should differ inside [6.5, 7.5]", a, b)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty = %g", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}

// A hand-built tree: an op [0,100) with two calls [10,40) and [50,90); the
// first call has a chain [20,30) joined to it, the second two overlapping
// chains [55,70) and [60,80).
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "op", VStart: 0, VEnd: 100},
		{ID: 2, Parent: 1, Layer: "aeofs", VStart: 10, VEnd: 40},
		{ID: 3, Parent: 1, Layer: "aeofs", VStart: 50, VEnd: 90},
	}
	joined := map[int][]interval{2: {{20, 30}}, 3: {{55, 70}, {60, 80}}}
	self := selfTimes(spans, joined)
	want := map[int]time.Duration{
		1: 100 - 30 - 40, // minus its two children
		2: 30 - 10,       // minus its chain
		3: 40 - 25,       // overlapping chains cover [55,80) once
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	// Children reaching outside their parent are clipped to it.
	if got := covered(0, 10, []interval{{-5, 3}, {8, 20}}); got != 5 {
		t.Errorf("covered = %d, want 5", got)
	}
}

// A hand-built trace: thread 0 runs op A [0,50) with a nested call [10,30)
// and op B [60,90); thread 1 runs op C [0,100).
func TestChainJoin(t *testing.T) {
	spans := []span{
		{ID: 1, Thread: 0, VStart: 0, VEnd: 50},
		{ID: 2, Parent: 1, Thread: 0, VStart: 10, VEnd: 30},
		{ID: 3, Thread: 0, VStart: 60, VEnd: 90},
		{ID: 4, Thread: 1, VStart: 0, VEnd: 100},
	}
	chains := []chainRef{
		{thread: 0, lo: 12, hi: 28},  // inside the nested call
		{thread: 0, lo: 35, hi: 45},  // inside op A only
		{thread: 0, lo: 40, hi: 65},  // straddles A and B: contained in neither
		{thread: 0, lo: 52, hi: 58},  // between ops
		{thread: 1, lo: 12, hi: 28},  // same times, other thread
		{thread: -1, lo: 12, hi: 28}, // issued by no generator thread (flusher)
		{thread: 0, lo: 60, hi: 90},  // exactly op B
	}
	bySpan, background := joinChains(spans, chains)
	wantSpan := map[int][]int{2: {0}, 1: {1}, 4: {4}, 3: {6}}
	for id, w := range wantSpan {
		if got := bySpan[id]; len(got) != len(w) || got[0] != w[0] {
			t.Errorf("span %d got chains %v, want %v", id, got, w)
		}
	}
	if len(bySpan) != len(wantSpan) {
		t.Errorf("joined spans = %v", bySpan)
	}
	if want := []int{2, 3, 5}; len(background) != 3 || background[0] != want[0] || background[1] != want[1] || background[2] != want[2] {
		t.Errorf("background = %v, want %v", background, want)
	}
}

func TestPatternWindow(t *testing.T) {
	r := newRegion(7, 1, 4)
	buf := make([]byte, 2*unit)
	r.fill(buf, 1)
	r.commit(1, 2)
	floor := r.floor(nil, 1, 2)
	if bad := r.verify(buf, 1, floor); bad != 0 {
		t.Fatalf("fresh write: %d bad units", bad)
	}
	// A write in flight: both the old and the new generation are valid.
	old := append([]byte(nil), buf...)
	r.fill(buf, 1)
	if r.verify(old, 1, floor) != 0 || r.verify(buf, 1, floor) != 0 {
		t.Error("a read concurrent with a write must accept either generation")
	}
	r.commit(1, 2)
	if bad := r.verify(old, 1, r.floor(nil, 1, 2)); bad != 2 {
		t.Errorf("stale data after commit: %d bad units, want 2", bad)
	}
	// Misplaced data (unit 2's bytes where unit 1 belongs) fails.
	copy(buf[:unit], buf[unit:])
	if bad := r.verify(buf, 1, r.floor(nil, 1, 2)); bad != 1 {
		t.Errorf("misplaced unit: %d bad, want 1", bad)
	}
}

// benchmarkJSON is BENCHMARK.json as the contract defines it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if b.RunSeconds != frozenSeconds {
		t.Errorf("run_seconds %d, frozenSeconds %d", b.RunSeconds, frozenSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || !name.MatchString(w.name) {
			t.Errorf("workload %d: %q vs %q", i, b.Workloads[i].Name, w.name)
		}
		if b.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %s: why differs or is longer than 200 (%d)", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, e := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != e.name || j.Unit != e.unit || j.Bound != e.bound || !name.MatchString(e.name) || !unitRE.MatchString(e.unit) {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, j, e)
		}
		if e.bound <= 0 || e.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.name, e.bound)
		}
		if want := map[bool]string{true: "higher", false: "lower"}[e.name == "sim_kiops"]; j.Better != want {
			t.Errorf("%s: better %q, want %q", e.name, j.Better, want)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, e := range perLayer {
		j := b.PerLayer[i]
		if j.Name != e[0] || j.Unit != e[1] || !name.MatchString(e[0]) || !unitRE.MatchString(e[1]) || seen[e[0]] {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %v", i, j, e)
		}
		if j.Better != "higher" && j.Better != "lower" {
			t.Errorf("%s: better %q", j.Name, j.Better)
		}
		seen[e[0]] = true
	}
	for p := range probes {
		if !seen[p] {
			t.Errorf("probe %s is not a per-layer metric", p)
		}
	}
}

// Every workload at 1/100 scale finishes with no failed op and gives the
// same virtual-time results twice.
func TestWorkloadsDeterministicAtSmallScale(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			p := params{seed: 3, size: 0.01, ops: 1}
			var first *outcome
			for i := 0; i < 2; i++ {
				r, err := w.run(p)
				if err != nil {
					t.Fatal(err)
				}
				o := &outcome{Metrics: map[string]metric{}}
				o.assemble([]*rep{r})
				if o.Failed != 0 || len(o.Fails) != 0 {
					t.Fatalf("failed %d of %d: %v", o.Failed, o.Attempted, o.Fails)
				}
				if o.Attempted == 0 || o.Samples == 0 {
					t.Fatalf("no ops measured: %+v", o)
				}
				if first == nil {
					first = o
					continue
				}
				for _, e := range endToEnd {
					if e.clock != "host" && o.Metrics[e.name] != first.Metrics[e.name] {
						t.Errorf("%s: %v then %v", e.name, first.Metrics[e.name].Value, o.Metrics[e.name].Value)
					}
				}
				if o.Fingerprint != first.Fingerprint {
					t.Errorf("fingerprint %+v then %+v", first.Fingerprint, o.Fingerprint)
				}
			}
		})
	}
}
