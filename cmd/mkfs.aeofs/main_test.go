package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun pins the default Figure 9 layout and the refusal of a journal
// region too small to commit into, which used to format and exit 0.
func TestRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("default layout: exit %d\nstderr: %s", code, &stderr)
	}
	want := `AeoFS volume formatted (262144 blocks, 1024.0 MiB)
  superblock:     block 0
  inode bitmap:   blocks 1..1 (32768 inodes)
  block bitmap:   blocks 2..9
  inode table:    blocks 10..1033
  journal area:   blocks 1034..66569 (64 regions x 1024 blocks)
  data area:      blocks 66570..262143
`
	if stdout.String() != want {
		t.Errorf("default layout:\n%s\nwant:\n%s", &stdout, want)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-journal-blocks", "1"}, &stdout, &stderr); code != 1 {
		t.Errorf("-journal-blocks 1: exit %d, want 1\nstdout: %s", code, &stdout)
	}
	if !strings.Contains(stderr.String(), "journal region of 1 blocks") || stdout.Len() != 0 {
		t.Errorf("-journal-blocks 1: stdout %q, stderr %q", &stdout, &stderr)
	}
}
