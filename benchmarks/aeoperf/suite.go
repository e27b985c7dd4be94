package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// frozenSeconds is the run length the frozen op counts were sized for on
// this machine: five repetitions whose timed phases add up to about this
// many seconds. -seconds N scales every op count by N/frozenSeconds, so a
// run measures for about N seconds while the op count, and with it every
// sim_* value, stays a pure function of (seed, N).
const frozenSeconds = 5

const repetitions = 5

// workload is one named closed-loop load.
type workload struct {
	name string
	why  string
	run  func(params) (*rep, error)
}

var workloads = []workload{
	{"blk_qd1", "one thread, QD1 4 KiB random reads on the raw driver: the paper's Fig. 2/10 latency, where driver, uintr and device stages must sum to the end-to-end number", runBlkQD1},
	{"blk_share", "four QD1 readers and a compute task on one core: the paper's core-sharing claim (Fig. 12), where out-of-schedule delivery and the scheduler set the tail", runBlkShare},
	{"blk_qd32", "two cores issuing batches of 32 mixed reads and writes: throughput-bound, device channels and per-batch doorbell and interrupt costs dominate", runBlkQD32},
	{"fs_hit", "AeoFS with the working set resident: the file system's CPU path and locks do all the work, driver and device almost none", runFSHit},
	{"fs_spill", "AeoFS with the working set four times the cache: eviction, write-back, journal commits and demand misses through the driver", runFSSpill},
	{"svc_rw", "eight network clients of the storage service over AeoFS: fabric, wire codec, rx, admission and workers, without metadata service or raft", runSvcRW},
	{"repl_rf3", "replicated writes at RF 3 on a five-node cluster: raft append, quorum and apply, where one op waits for the slower of two peers", runReplRF3},
	{"mds_mix", "metadata-heavy mix on four MDS shards and four data nodes: namespace shards, peer continuations, leases and direct-to-data reads", runMDSMix},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetric is one end-to-end metric: its unit, its clock, and the share of
// the parent's median by which it may get worse before a change counts as a
// regression. BENCHMARK.json carries the same bounds (checked by a test).
// Clocks: "sim" is virtual time and "count" a count of what the simulator
// did — both made by the program, bit-identical per seed, compared exactly
// — and "host" is the Go process's allocator, memory and wall clock.
type e2eMetric struct {
	name, unit, clock string
	bound             float64
}

// endToEnd lists the end-to-end metrics in print order. Two numbers are
// printed with them but are not among them. fail_ratio travels in the
// result's attempted/failed counts: a metric that is always 0 has no
// relative bound. host_ns_per_op has no bound a run on this machine could
// honour — its run-to-run spread was 4-11 % in a quiet hour and 22-34 % in a
// noisy one, whatever the estimator — so the host clock is bounded through
// what it is proportional to (host_events_per_op, exact) and through the
// allocator, and host time itself is reported per layer
// (sim.host_ns_per_op, sim.host_ns_per_event, the probes).
var endToEnd = []e2eMetric{
	{"sim_kiops", "kops/s", "sim", 0.03},
	{"sim_lat_p50_us", "us", "sim", 0.01},
	{"sim_lat_p99_us", "us", "sim", 0.05},
	{"sim_lat_p999_us", "us", "sim", 0.25},
	{"sim_cpu_us_per_op", "us", "sim", 0.04},
	{"host_events_per_op", "count", "count", 0.03},
	{"host_allocs_per_op", "count", "host", 0.05},
	{"host_bytes_per_op", "B", "host", 0.05},
	{"host_peak_rss_mb", "MiB", "host", 0.25},
	{"setup_s", "s", "host", 0.25},
}

// hostTimeTolerance is how far host_ns_per_op may differ between two runs of
// the same code before the self-check calls it a change.
const hostTimeTolerance = 0.25

// outcome is everything one workload run produced.
type outcome struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Seconds     int               `json:"seconds"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FailRatio   float64           `json:"fail_ratio"`
	Samples     int               `json:"samples"`
	TailPct     float64           `json:"highest_percentile"` // highest percentile with >= 10 samples beyond it
	Fingerprint fingerprint       `json:"fingerprint"`
	FPChecked   bool              `json:"fingerprint_matches_table"`
	Metrics     map[string]metric `json:"metrics"`
	Fails       []string          `json:"failures,omitempty"`
	WallS       float64           `json:"wall_s"`
	hostMeanNS  float64           // median over repetitions of phase wall time ÷ ops (the unrefined estimate)
}

func (o *outcome) correct() bool { return o.Failed == 0 && len(o.Fails) == 0 }

// opsOf returns the op count host and CPU costs are divided by.
func opsOf(r *rep) float64 {
	if r.timedOps > 0 {
		return float64(r.timedOps)
	}
	return float64(r.attempts)
}

// runEndToEnd runs the five untraced repetitions of w and assembles the
// end-to-end metrics: sim_* over the pooled repetitions, host_* and setup_s
// as medians over them.
func runEndToEnd(w *workload, base params, seconds int) (*outcome, error) {
	start := time.Now()
	o := &outcome{Workload: w.name, Seed: base.seed, Seconds: seconds, Metrics: map[string]metric{}}
	var reps []*rep
	for i := 0; i < repetitions; i++ {
		p := base
		p.seed = base.seed + uint64(i)
		// Drop the previous repetition's machine first: peak RSS is then
		// the largest single repetition, not whatever the collector had
		// not got round to.
		runtime.GC()
		r, err := w.run(p)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d (seed %d): %w", w.name, i, p.seed, err)
		}
		reps = append(reps, r)
	}
	o.assemble(reps)
	o.Metrics["host_peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
	o.WallS = time.Since(start).Seconds()
	return o, nil
}

// assemble fills the outcome from its repetitions.
func (o *outcome) assemble(reps []*rep) {
	var lats [][]time.Duration
	var ops, simS, cpu float64
	var hostNS, allocs, bytes, setup, chunkNS []float64
	var events float64
	for _, r := range reps {
		o.Attempted += r.attempts
		o.Failed += r.failed
		o.Fails = append(o.Fails, r.fails...)
		o.Fingerprint.merge(r.fp)
		lats = append(lats, r.lat)
		n := opsOf(r)
		ops += n
		simS += r.simSpan.Seconds()
		cpu += us(r.cpu)
		hostNS = append(hostNS, float64(r.host.Nanoseconds())/n)
		chunkNS = append(chunkNS, r.chunkNS...)
		events += float64(r.events)
		allocs = append(allocs, float64(r.allocs)/n)
		bytes = append(bytes, float64(r.bytes)/n)
		setup = append(setup, r.setup.Seconds())
	}
	if len(o.Fails) > maxFailNotes {
		o.Fails = o.Fails[:maxFailNotes]
	}
	o.FailRatio = ratio(float64(o.Failed), float64(o.Attempted))
	pooled := poolSorted(lats...)
	o.Samples = len(pooled)
	o.TailPct = highestPercentile(len(pooled))
	set := func(name string, v float64) {
		for _, e := range endToEnd {
			if e.name == name {
				o.Metrics[name] = metric{v, e.unit}
			}
		}
	}
	set("sim_kiops", ratio(ops, simS)/1e3)
	set("sim_lat_p50_us", nsToUs(percentile(pooled, 50)))
	set("sim_lat_p99_us", nsToUs(percentile(pooled, 99)))
	set("sim_lat_p999_us", nsToUs(percentile(pooled, 99.9)))
	set("sim_cpu_us_per_op", ratio(cpu, ops))
	set("host_events_per_op", ratio(events, ops))
	// Host time, reported beside the bounded metrics: the undisturbed cost
	// of an engine event — the lower decile over every ~10 ms chunk of the
	// five timed phases — times the events an op takes. On a shared machine
	// the neighbours only ever add time; the lower decile is the steadiest
	// estimate there is of what the code costs, and it was still not steady
	// enough to bound (see endToEnd). Too few chunks (tests): the mean.
	hostNSPerOp := median(hostNS)
	if len(chunkNS) >= 20 {
		sort.Float64s(chunkNS)
		hostNSPerOp = chunkNS[len(chunkNS)/10] * ratio(events, ops)
	}
	o.Metrics["host_ns_per_op"] = metric{hostNSPerOp, "ns"}
	o.hostMeanNS = median(hostNS)
	set("host_allocs_per_op", median(allocs))
	set("host_bytes_per_op", median(bytes))
	set("setup_s", median(setup))
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// printTable prints metrics by name with unit, one per line, in the given
// order (sorted when order is nil).
func printTable(title string, m map[string]metric, order []string) {
	if order == nil {
		for k := range m {
			order = append(order, k)
		}
		sort.Strings(order)
	}
	fmt.Println(title)
	for _, k := range order {
		if v, ok := m[k]; ok {
			fmt.Printf("  %-36s %16.6g %s\n", k, v.Value, v.Unit)
		}
	}
}

func (o *outcome) print() {
	var order []string
	for _, e := range endToEnd {
		order = append(order, e.name)
	}
	printTable(fmt.Sprintf("== %s  seed %d  %d s  (%.1f s wall)", o.Workload, o.Seed, o.Seconds, o.WallS), o.Metrics, order)
	fmt.Printf("  %-36s %16.6g ratio  (%d failed of %d attempted)\n", "fail_ratio", o.FailRatio, o.Failed, o.Attempted)
	fmt.Printf("  %-36s %16.6g ns     (not bounded; whole-phase mean %.6g ns)\n", "host_ns_per_op", o.Metrics["host_ns_per_op"].Value, o.hostMeanNS)
	fmt.Printf("  samples %d (highest percentile with >= 10 samples beyond: p%g)\n", o.Samples, o.TailPct)
	fp := o.Fingerprint
	checked := "not checked: no table entry matches it"
	if o.FPChecked {
		checked = "matches the table"
	}
	fmt.Printf("  load: %d ops, %d reads, %d writes, %d user bytes, hash %016x (%s)\n",
		fp.Ops, fp.Reads, fp.Writes, fp.Bytes, fp.Hash, checked)
	for _, f := range o.Fails {
		fmt.Printf("  FAILED: %s\n", f)
	}
}
