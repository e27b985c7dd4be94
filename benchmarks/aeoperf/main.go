// Command aeoperf is the repository's benchmark: eight named closed-loop
// workloads against the layers' public functions, reported on two clocks —
// sim_* is virtual time (what the paper's figures report; deterministic per
// seed) and host_* is what the simulator costs the Go process. See
// ../README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// expected holds the load fingerprints recorded for seeds 1..10 at the
// frozen sizes: workload → seed → fingerprint. A run whose fingerprint
// differs offered a different load and is invalid, not faster.
//
//go:embed fingerprints.json
var expectedJSON []byte

var expected = func() map[string]map[string]fingerprint {
	m := map[string]map[string]fingerprint{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic("aeoperf: fingerprints.json: " + err.Error())
	}
	return m
}()

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	corrupt  bool
}

// result is the last line of a workload run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: every workload, one child process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "load seed; repetition i uses seed+i")
	flag.IntVar(&o.seconds, "seconds", frozenSeconds, "how long the timed phases of a run add up to on the machine the sizes were frozen on; scales every op count")
	flag.IntVar(&o.trace, "trace", 0, "1: run the traced repetition and the probes and print the per-layer table in place of the end-to-end one")
	traced := flag.Bool("traced", false, "same as -trace 1")
	aa := flag.Bool("aa", false, "run the suite twice, alternating workload order, and compare the two")
	self := flag.Bool("selfcheck", false, "show that each kind of metric responds to its cause")
	spread := flag.Bool("spread", false, "run the suite on seeds 1..10, print each metric's spread against its bound and write the fingerprint table")
	list := flag.Bool("list", false, "list workloads and metrics")
	flag.StringVar(&o.out, "out", filepath.Join("benchmarks", "out"), "directory for trace_<workload>.json and result files")
	flag.BoolVar(&o.corrupt, "x-corrupt", false, "self-check (d): corrupt one prefill unit")
	flag.Parse()
	if *traced {
		o.trace = 1
	}
	// The serial engine runs one goroutine at a time by construction. A
	// second P only adds cross-thread wake-ups to every coroutine handoff:
	// on this 2-core box that made host_ns_per_op 20-60 % slower and moved
	// it by up to 40 % from run to run.
	runtime.GOMAXPROCS(1)
	if o.seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	code := 0
	switch {
	case *list:
		printList()
	case *self:
		code = selfCheck(o)
	case *aa:
		code = runAA(o)
	case *spread:
		code = runSpread(o)
	case o.workload != "":
		w := findWorkload(o.workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "aeoperf: unknown workload %q (see -list)\n", o.workload)
			os.Exit(2)
		}
		code = runOne(w, o)
	default:
		if _, ok := runSuite(o, workloads); !ok {
			code = 1
		}
	}
	os.Exit(code)
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-10s %s\n", w.name, w.why)
	}
	fmt.Println("end-to-end metrics (bound = how much worse the median may get):")
	for _, e := range endToEnd {
		fmt.Printf("  %-22s %-7s %-5s %g\n", e.name, e.unit, e.clock, e.bound)
	}
	fmt.Printf("  %-22s %-7s %-5s reported as failed/attempted; must stay 0\n", "fail_ratio", "ratio", "-")
	fmt.Println("per-layer metrics (-trace 1):")
	for _, e := range perLayer {
		fmt.Printf("  %-36s %s\n", e[0], e[1])
	}
}

// baseParams are the parameters of an end-to-end repetition.
func (o options) baseParams() params {
	return params{seed: o.seed, size: 1, ops: float64(o.seconds) / frozenSeconds, corrupt: o.corrupt}
}

// runOne runs one workload in this process, prints its table and, as the
// last line, the result object. It returns the exit code: outputs that are
// wrong fail loudly.
func runOne(w *workload, o options) int {
	var res result
	if o.trace == 0 {
		out, err := runEndToEnd(w, o.baseParams(), o.seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aeoperf:", err)
			return 1
		}
		if want, ok := expected[w.name][strconv.FormatUint(o.seed, 10)]; ok && o.seconds == frozenSeconds && !o.corrupt {
			if out.FPChecked = want == out.Fingerprint; !out.FPChecked {
				out.Fails = append(out.Fails, fmt.Sprintf("load fingerprint %+v differs from the recorded %+v: the run is invalid", out.Fingerprint, want))
			}
		}
		out.print()
		res = result{out.correct(), out.Attempted, out.Failed, map[string]metric{}}
		for _, e := range endToEnd {
			res.Metrics[e.name] = out.Metrics[e.name]
		}
		if err := writeJSON(o.out, fmt.Sprintf("result_%s.json", w.name), out); err != nil {
			fmt.Fprintln(os.Stderr, "aeoperf:", err)
		}
	} else {
		t, err := runTraced(w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aeoperf:", err)
			return 1
		}
		res = *t
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aeoperf:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runTraced runs the per-layer side of a workload: one untraced and one
// traced repetition of the same seed at a quarter of the ops, then the
// probes.
func runTraced(w *workload, o options) (*result, error) {
	p := o.baseParams()
	p.ops *= traceOps
	base, err := w.run(p)
	if err != nil {
		return nil, fmt.Errorf("%s untraced repetition: %w", w.name, err)
	}
	p.tracer, p.spans = true, true
	tr, err := w.run(p)
	if err != nil {
		return nil, fmt.Errorf("%s traced repetition: %w", w.name, err)
	}
	vals, notes := layerTable(tr, base)
	for name, probe := range probes {
		vals[name] = probe()
	}
	res := &result{Attempted: tr.attempts + base.attempts, Failed: tr.failed + base.failed, Metrics: map[string]metric{}}
	var order []string
	for _, e := range perLayer {
		res.Metrics[e[0]] = metric{vals[e[0]], e[1]}
		order = append(order, e[0])
	}
	printTable(fmt.Sprintf("== %s  seed %d  per-layer (traced repetition, %d ops)", w.name, o.seed, int(opsOf(tr))), res.Metrics, order)
	if w.name == "blk_qd1" {
		rows, un := stageSum(vals, dist(tr.lat).p(50))
		fmt.Println("  stages of one read against the end-to-end median (the paper's Fig. 3/17 shape):")
		for _, r := range rows {
			fmt.Printf("    %-40s %s us\n", r[0], r[1])
		}
		if un > 0.05 || un < -0.05 {
			notes = append(notes, fmt.Sprintf("stages leave %.1f %% of sim_lat_p50_us unattributed (limit 5 %%)", 100*un))
		}
	}
	if vals["trace.dropped"] != 0 {
		notes = append(notes, fmt.Sprintf("%g trace events dropped", vals["trace.dropped"]))
	}
	for _, f := range append(append(base.fails, tr.fails...), notes...) {
		fmt.Printf("  FAILED: %s\n", f)
	}
	res.Correct = res.Failed == 0 && len(notes) == 0
	err = writeJSON(o.out, fmt.Sprintf("trace_%s.json", w.name), map[string]any{
		"workload": w.name, "seed": o.seed, "ops": int(opsOf(tr)),
		"timed_phase_virt_ns": [2]int64{int64(tr.simT0), int64(tr.simT0 + tr.simSpan)},
		"spans":               tr.spans,
	})
	return res, err
}

func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// runSuite re-executes this program once per workload, in the given order:
// each workload gets a fresh heap and its own peak-RSS reading. It relays
// the children's tables and returns their results by workload.
func runSuite(o options, order []workload) (map[string]result, bool) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aeoperf:", err)
		return nil, false
	}
	results := map[string]result{}
	ok := true
	for _, w := range order {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace), "-out", o.out)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr == nil {
			lines = lines[:len(lines)-1]
			results[w.name] = res
		} else if err == nil {
			err = fmt.Errorf("no result line: %v", jerr)
		}
		fmt.Println(strings.Join(lines, "\n"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "aeoperf: %s: %v\n", w.name, err)
			ok = false
		}
	}
	return results, ok
}
