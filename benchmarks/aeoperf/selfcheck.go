package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"
)

// selfCheckRise is the least rise of host_ns_per_op that self-check (b)
// accepts as "tracing shows": above the few per cent two runs of the same
// code differ by, below the 10-20 % tracing costs.
const selfCheckRise = 0.05

// check is one line of the sensitivity self-check.
type check struct {
	Name   string `json:"name"`
	Detail string `json:"detail"`
	Pass   bool   `json:"pass"`
}

// selfCheck shows that each kind of metric responds to the thing it is named
// after, using only public configuration passed in from the benchmark:
// (a) a slower device moves the device-bound latency by exactly that much and
// leaves a cache-resident workload bit-identical; (b) host work added around
// the program (tracing and spans) leaves every sim_* value bit-identical and
// raises the host cost; (c) twice the ops leave the per-op host costs where
// they were; (d) one corrupted prefill unit is a failed op and a non-zero
// exit.
func selfCheck(o options) int {
	var checks []check
	add := func(name string, pass bool, format string, args ...any) {
		c := check{name, fmt.Sprintf(format, args...), pass}
		checks = append(checks, c)
		fmt.Printf("  %-4s %s: %s\n", passWord(pass), c.Name, c.Detail)
	}
	run := func(name string, p params) *outcome {
		out, err := runEndToEnd(findWorkload(name), p, o.seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aeoperf:", err)
			os.Exit(1)
		}
		return out
	}
	val := func(out *outcome, m string) float64 { return out.Metrics[m].Value }
	sameSim := func(a, b *outcome) (string, bool) {
		for _, e := range endToEnd {
			if e.clock != "host" && val(a, e.name) != val(b, e.name) {
				return fmt.Sprintf("%s %v vs %v", e.name, val(a, e.name), val(b, e.name)), false
			}
		}
		return "every sim_* value and host_events_per_op bit-identical", true
	}
	bound := func(m string) float64 {
		for _, e := range endToEnd {
			if e.name == m {
				return e.bound
			}
		}
		return 0
	}
	base := o.baseParams()
	fmt.Println("== self-check: does each number move with its cause?")

	// (a) nvme.Config.Model = P5800X() with ReadBase raised by 2 µs.
	slow := base
	slow.readBaseExtra = 2 * time.Microsecond
	qd1, qd1Slow := run("blk_qd1", base), run("blk_qd1", slow)
	d := val(qd1Slow, "sim_lat_p50_us") - val(qd1, "sim_lat_p50_us")
	add("a1 blk_qd1 follows the device", math.Abs(d-2) <= 0.04,
		"ReadBase +2 us moved sim_lat_p50_us by %+.4f us (%.4f -> %.4f), want 2 +/- 2 %%",
		d, val(qd1, "sim_lat_p50_us"), val(qd1Slow, "sim_lat_p50_us"))
	hit, hitSlow := run("fs_hit", base), run("fs_hit", slow)
	add("a2 fs_hit ignores the device", val(hit, "sim_lat_p50_us") == val(hitSlow, "sim_lat_p50_us"),
		"sim_lat_p50_us %v with the slower device, %v without", val(hitSlow, "sim_lat_p50_us"), val(hit, "sim_lat_p50_us"))

	// (b) Engine.Tracer set (and, where the benchmark owns the generator,
	// spans recorded): host work only. Tracing costs 10-20 % of host time;
	// spans cost bytes, well beyond host_bytes_per_op's bound.
	heavy := base
	heavy.tracer, heavy.spans = true, true
	qd1Heavy := run("blk_qd1", heavy)
	for _, pair := range [][2]*outcome{{qd1, qd1Heavy}, {run("svc_rw", base), run("svc_rw", heavy)}} {
		detail, same := sameSim(pair[0], pair[1])
		add("b1 "+pair[0].Workload+" tracing is virtual-time-neutral", same, "%s", detail)
	}
	// Host cost is asked of blk_qd1 only: svc_rw's generator is the
	// system's client library, which takes no spans, and the tracer alone
	// costs it 3-10 % — too close to what two runs differ by.
	for _, c := range []struct {
		m    string
		rise float64
	}{{"host_ns_per_op", selfCheckRise}, {"host_bytes_per_op", bound("host_bytes_per_op")}} {
		r := ratio(val(qd1Heavy, c.m), val(qd1, c.m))
		add("b2 blk_qd1 "+c.m+" sees the tracing and the spans", r > 1+c.rise,
			"x%.4f of %.6g, want more than +%g %%", r, val(qd1, c.m), 100*c.rise)
	}

	// (c) Timed op count doubled: per-op metrics stay put.
	double := base
	double.ops *= 2
	qd1x2 := run("blk_qd1", double)
	for _, c := range []struct {
		m   string
		tol float64
	}{{"host_ns_per_op", hostTimeTolerance}, {"host_allocs_per_op", bound("host_allocs_per_op")}} {
		r := ratio(val(qd1x2, c.m), val(qd1, c.m))
		add("c blk_qd1 "+c.m+" is per op, not per run", math.Abs(r-1) <= c.tol,
			"x%.4f of %.6g with twice the ops, want within %g %%", r, val(qd1, c.m), 100*c.tol)
	}

	// (d) One corrupted prefill unit: a child run must count it and fail.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aeoperf:", err)
		return 1
	}
	out, err := exec.Command(self, "-workload", "blk_qd1", "-seconds", "1", "-x-corrupt", "-out", o.out).Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	_ = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	add("d a corrupted unit is a failed op and a failed run", err != nil && res.Failed > 0 && !res.Correct,
		"exit: %v; failed %d of %d; correct=%v", err, res.Failed, res.Attempted, res.Correct)

	pass := true
	for _, c := range checks {
		pass = pass && c.Pass
	}
	fmt.Println("self-check", passWord(pass))
	if err := writeJSON(o.out, "selfcheck.json", map[string]any{"selfcheck": checks, "pass": pass}); err != nil {
		fmt.Fprintln(os.Stderr, "aeoperf:", err)
	}
	if !pass {
		return 1
	}
	return 0
}
