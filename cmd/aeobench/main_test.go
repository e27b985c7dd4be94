package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aeolia/internal/experiments"
	"aeolia/internal/report"
	"aeolia/internal/trace"
)

// fake is a registry entry that counts its calls. traceErr == errNoTrace
// leaves the Trace hook nil.
type fake struct {
	runs, traces int
	exp          *experiments.Experiment
}

var errNoTrace = errors.New("no traced cell")

func newFake(id string, runErr, traceErr error) *fake {
	f := &fake{}
	f.exp = &experiments.Experiment{ID: id, Title: id, Run: func() ([]*report.Table, error) {
		f.runs++
		return []*report.Table{{ID: id, Columns: []string{"c"}}}, runErr
	}}
	if traceErr != errNoTrace {
		f.exp.Trace = func() (*experiments.Traced, error) {
			f.traces++
			return &experiments.Traced{
				Events:  []trace.Event{{Seq: 1, Type: trace.SQEPrep, Core: -1, QID: 1}},
				Tables:  []*report.Table{{ID: id + "_stages", Columns: []string{"c"}}},
				Summary: "all well",
			}, traceErr
		}
	}
	return f
}

// TestRun pins the command's contract: every named experiment's sweep runs,
// then its traced cell; a failure of either exits 1; nothing that names no
// runnable experiment can exit 0. The parent's `-trace t.json -cache` wrote
// the trace and exited 0 without running the gate.
func TestRun(t *testing.T) {
	boom := errors.New("boom")
	out := filepath.Join(t.TempDir(), "t.json")
	cases := []struct {
		name         string
		args         []string
		code         int
		runs, traces [4]int // calls per fake: ok, plain, badrun, badtrace
		stdout       []string
		stderr       string
		wantFile     bool
	}{
		{name: "sweep then traced cell", args: []string{"ok"}, code: 0,
			runs: [4]int{1}, traces: [4]int{1}, stdout: []string{"== ok:", "== ok_stages:"}, stderr: "[ok traced cell: 1 events, all well]"},
		{name: "several ids in order", args: []string{"-md", "plain", "ok"}, code: 0,
			runs: [4]int{1, 1}, traces: [4]int{1}, stdout: []string{"### plain", "### ok_stages"}},
		{name: "all", args: []string{"all"}, code: 1, // stops at badrun, after ok and plain
			runs: [4]int{1, 1, 1}, traces: [4]int{1}, stderr: "badrun failed: boom"},
		{name: "json is one document", args: []string{"-json", "ok", "plain"}, code: 0,
			runs: [4]int{1, 1}, traces: [4]int{1}, stdout: []string{`"id": "ok_stages"`, `"id": "plain"`}},
		{name: "trace export", args: []string{"-trace", out, "ok"}, code: 0,
			runs: [4]int{1}, traces: [4]int{1}, wantFile: true},
		{name: "trace with no id", args: []string{"-trace", out}, code: 2, stderr: "usage:"},
		{name: "trace with two ids", args: []string{"-trace", out, "ok", "badtrace"}, code: 2, stderr: "exactly one"},
		{name: "trace of a figure without a traced cell", args: []string{"-trace", out, "plain"}, code: 2, stderr: "exactly one"},
		{name: "deleted gate flag", args: []string{"-trace", out, "-cache"}, code: 2, stderr: "not defined: -cache"},
		{name: "unknown id", args: []string{"ok", "nonsense"}, code: 2, stderr: `unknown experiment "nonsense"`},
		{name: "no args", args: nil, code: 2, stderr: "usage:"},
		{name: "list", args: []string{"list"}, code: 0, stdout: []string{"ok ", "badtrace"}},
		{name: "failing Run", args: []string{"badrun"}, code: 1,
			runs: [4]int{0, 0, 1}, stderr: "badrun failed: boom"},
		{name: "failing Trace still reports and exports", args: []string{"-trace", out, "badtrace"}, code: 1,
			runs: [4]int{0, 0, 0, 1}, traces: [4]int{0, 0, 0, 1}, stdout: []string{"== badtrace_stages:"},
			stderr: "badtrace traced cell failed: boom", wantFile: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			os.Remove(out)
			fakes := []*fake{newFake("ok", nil, nil), newFake("plain", nil, errNoTrace),
				newFake("badrun", boom, nil), newFake("badtrace", nil, boom)}
			var registry []*experiments.Experiment
			for _, f := range fakes {
				registry = append(registry, f.exp)
			}
			var stdout, stderr bytes.Buffer
			if code := run(registry, tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, tc.code, &stderr)
			}
			for i, f := range fakes {
				if f.runs != tc.runs[i] || f.traces != tc.traces[i] {
					t.Errorf("%s: Run called %d times and Trace %d, want %d and %d",
						f.exp.ID, f.runs, f.traces, tc.runs[i], tc.traces[i])
				}
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, &stdout)
				}
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, &stderr)
			}
			if tc.args != nil && tc.args[0] == "-json" {
				var doc []map[string]any
				if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil || len(doc) != 3 {
					t.Errorf("-json stdout is not one document of 3 tables (err %v):\n%s", err, &stdout)
				}
			}
			raw, err := os.ReadFile(out)
			if tc.wantFile != (err == nil) {
				t.Fatalf("trace file written = %v, want %v", err == nil, tc.wantFile)
			}
			if tc.wantFile {
				var doc struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) != 1 {
					t.Errorf("trace file is not Chrome trace_event JSON of 1 event (err %v):\n%s", err, raw)
				}
			}
		})
	}
}

// TestTraceQDSweep drives the real registry end to end through the one path:
// `-trace FILE qdsweep` runs the sweep and the traced QD32 window and writes
// a loadable Chrome trace.
func TestTraceQDSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the qdsweep sweep and its traced cell; skipped in -short")
	}
	out := filepath.Join(t.TempDir(), "qd.json")
	var stdout, stderr bytes.Buffer
	if code := run(experiments.All(), []string{"-trace", out, "qdsweep"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, &stderr)
	}
	for _, want := range []string{"== qdsweep:", "== qdsweep_stages:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, &stdout)
		}
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace file is not Chrome trace_event JSON with events (err %v)", err)
	}
}
