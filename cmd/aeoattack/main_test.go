package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun pins the §8 verdict the command gates on: every attack is
// blocked, the summary names all 96, and the run exits 0.
func TestRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
	if !strings.HasPrefix(stdout.String(), "aeoattack: blocked 96/96 attacks (") {
		t.Errorf("stdout:\n%s", &stdout)
	}
	if code := run([]string{"-x"}, &stdout, &stderr); code != 2 {
		t.Errorf("undefined flag: exit %d, want 2", code)
	}
}
