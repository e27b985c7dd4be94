package nvme

import (
	"strings"
	"testing"

	"aeolia/internal/sim"
)

// TestRecycledCommandRecordRefusesToComplete: a command record goes back to
// the device's free list when its command completes. Whoever still holds it
// then — a completion event scheduled twice, a kept pointer — must not be
// able to complete it again, because its entry belongs to the next command.
func TestRecycledCommandRecordRefusesToComplete(t *testing.T) {
	e := sim.NewEngine(0, nil)
	d := NewDevice(e, Config{BlockSize: 512, NumBlocks: 64})
	qp, err := d.CreateQueuePair(8)
	if err != nil {
		t.Fatal(err)
	}
	submit := func() {
		if _, err := qp.Submit(SubmissionEntry{Opcode: OpRead, SLBA: 1, NLB: 1, Data: make([]byte, 512)}); err != nil {
			t.Fatal(err)
		}
	}
	submit()
	e.Run(0)
	if len(d.freeCmds) != 1 {
		t.Fatalf("%d records in the free list after one command, want 1", len(d.freeCmds))
	}
	stale := d.freeCmds[0]

	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), "after it was recycled") {
				t.Errorf("completing a recycled record: recovered %v, want the retention panic", r)
			}
		}()
		stale.fire()
	}()

	// The real path stays quiet: the same record serves the next command.
	submit()
	e.Run(0)
	if len(d.freeCmds) != 1 || d.freeCmds[0] != stale || qp.Completed != 2 {
		t.Fatalf("record not reused: %d free, %d completed", len(d.freeCmds), qp.Completed)
	}
}
