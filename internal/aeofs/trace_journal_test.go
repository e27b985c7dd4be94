// Trace coverage for the file-system tier: a write+fsync through AeoFS must
// emit journal-write events before the commit point and flush the pagecache,
// and the whole run — device, interrupt, and FS layers together — must
// satisfy the analyzer's causal invariants.
package aeofs_test

import (
	"fmt"
	"testing"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
	"aeolia/internal/vfs"
)

func TestJournalTraceOrdering(t *testing.T) {
	tr := trace.New(1, 1<<16)
	m := machine.New(1, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 14})
	defer m.Eng.Shutdown()
	m.Eng.Tracer = tr
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{Journals: 2, JournalBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	fs := fi.FS

	var werr error
	m.Eng.Spawn("workload", m.Eng.Core(0), func(env *sim.Env) {
		if init, ok := fs.(vfs.PerThreadInit); ok {
			if werr = init.InitThread(env); werr != nil {
				return
			}
		}
		fd, e := fs.Open(env, "/j", vfs.O_CREATE|vfs.O_RDWR)
		if e != nil {
			werr = e
			return
		}
		data := make([]byte, 2*aeofs.BlockSize)
		for i := range data {
			data[i] = byte(i)
		}
		if _, e := fs.Write(env, fd, data); e != nil {
			werr = e
			return
		}
		if e := fs.Fsync(env, fd); e != nil {
			werr = e
			return
		}
		werr = fs.Close(env, fd)
	})
	m.Eng.Run(m.Eng.Now() + 10*time.Second)
	if werr != nil {
		t.Fatal(werr)
	}

	evs := tr.Events()
	var writes, commits, flushes int
	var firstWrite, firstCommit uint64
	for _, e := range evs {
		switch e.Type {
		case trace.JournalWrite:
			writes++
			if firstWrite == 0 {
				firstWrite = e.Seq
			}
		case trace.JournalCommit:
			commits++
			if firstCommit == 0 {
				firstCommit = e.Seq
			}
		case trace.PagecacheFlush:
			flushes++
		}
	}
	if writes == 0 {
		t.Error("fsync emitted no JournalWrite events")
	}
	if commits == 0 {
		t.Error("fsync emitted no JournalCommit event")
	}
	if flushes == 0 {
		t.Error("fsync emitted no PagecacheFlush event")
	}
	if firstWrite != 0 && firstCommit != 0 && firstCommit < firstWrite {
		t.Errorf("commit (seq %d) precedes first journal write (seq %d)", firstCommit, firstWrite)
	}

	a := trace.Analyze(evs)
	if len(a.Violations) != 0 {
		t.Fatalf("FS workload produced causal violations: %v", a.Violations)
	}
	for _, c := range a.Chains {
		if !c.Complete() {
			t.Errorf("incomplete device chain qid=%d cid=%d under FS workload", c.QID, c.CID)
		}
	}
}

// TestLargeRegionCommitsFitOneBatch: the forced-commit threshold is a third
// of the region, clamped to what one batch holds. A 4096-block region used
// to queue 1365 images before committing — three batches for one region in
// one commit, each with its own CRC — and once the merge drops superseded
// images a transaction is atomic only together with the batch that holds
// what superseded them. Every forced commit here must be one JournalWrite
// of at most a batch's worth of images.
func TestLargeRegionCommitsFitOneBatch(t *testing.T) {
	const batchMax = (aeofs.BlockSize - 32) / 8
	tr := trace.New(1, 1<<16)
	m := machine.New(1, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 15})
	defer m.Eng.Shutdown()
	m.Eng.Tracer = tr
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{Journals: 1, JournalBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	fs := fi.FS

	var werr error
	m.Eng.Spawn("workload", m.Eng.Core(0), func(env *sim.Env) {
		if init, ok := fs.(vfs.PerThreadInit); ok {
			if werr = init.InitThread(env); werr != nil {
				return
			}
		}
		// ~3 images a create: 600 creates queue well over three
		// batches' worth.
		for i := 0; i < 600 && werr == nil; i++ {
			var fd int
			if fd, werr = fs.Open(env, fmt.Sprintf("/f%d", i), vfs.O_CREATE|vfs.O_RDWR); werr == nil {
				werr = fs.Close(env, fd)
			}
		}
	})
	m.Eng.Run(m.Eng.Now() + 10*time.Second)
	if werr != nil {
		t.Fatal(werr)
	}
	if fi.Trust.Syncs == 0 {
		t.Fatal("600 creates forced no commit: the test is not reaching the threshold")
	}
	writes := 0
	for _, e := range tr.Events() {
		switch e.Type {
		case trace.JournalWrite:
			writes++
			if e.Aux > batchMax {
				t.Errorf("batch of %d images exceeds the %d a batch holds", e.Aux, batchMax)
			}
		case trace.JournalCommit:
			if writes != 1 {
				t.Errorf("commit at seq %d wrote %d batches for one region, want 1", e.Seq, writes)
			}
			writes = 0
		}
	}
	if a := trace.Analyze(tr.Events()); len(a.Violations) != 0 {
		t.Fatalf("violations: %v", a.Violations)
	}
}
