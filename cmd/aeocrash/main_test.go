package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun pins both directions of the command's contract: a passing cell
// exits 0, and a flag the run would ignore or misread exits 2 with the
// usage line instead of running cells. `-point nosuch` used to run as a
// failing cell (exit 1), and `-torn` alone ran the full matrix (exit 0).
func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{name: "one passing cell", args: []string{"-point", "sync:after-commit", "-torn"}, code: 0,
			stdout: "aeocrash: all 1 cells passed (seed 1)"},
		{name: "two-region cell", args: []string{"-seed", "3", "-point", "sync:mid-journal", "-regions", "2"}, code: 0,
			stdout: "aeocrash: all 1 cells passed (seed 3)"},
		{name: "list", args: []string{"-list"}, code: 0, stdout: "ckpt:mid-write\n"},
		{name: "unknown point", args: []string{"-point", "nosuch"}, code: 2, stderr: `unknown crash point "nosuch"`},
		{name: "torn without point", args: []string{"-torn"}, code: 2, stderr: "need -point"},
		{name: "regions without point", args: []string{"-regions", "2"}, code: 2, stderr: "need -point"},
		{name: "three regions", args: []string{"-point", "sync:after-commit", "-regions", "3"}, code: 2, stderr: "-regions 3"},
		{name: "stray argument", args: []string{"sync:after-commit"}, code: 2, stderr: "unexpected argument"},
		{name: "undefined flag", args: []string{"-crash"}, code: 2, stderr: "not defined: -crash"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stdout %q lacks %q or stderr %q lacks %q", &stdout, tc.stdout, &stderr, tc.stderr)
			}
			if tc.code == 2 {
				if stdout.Len() != 0 {
					t.Errorf("usage error ran cells:\n%s", &stdout)
				}
				if !strings.Contains(stderr.String(), "crash points: sync:before-journal") {
					t.Errorf("usage error does not list the crash points:\n%s", &stderr)
				}
			}
		})
	}
}
