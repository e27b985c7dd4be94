package nvme_test

import (
	"testing"

	"aeolia/internal/alloctest"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

// TestAllocsSubmitComplete: a command costs the submitter what the submitter
// brings (its entry, its buffer, its completion handle, its CQE scratch) and
// the queue pair and the device nothing: the completion is the caller's, the
// device's command record and the engine's event come from their free lists.
func TestAllocsSubmitComplete(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 1024})
	qp, err := d.CreateQueuePair(32)
	if err != nil {
		t.Fatal(err)
	}
	var (
		done    sim.Completion
		entries = []nvme.SubmissionEntry{{Opcode: nvme.OpRead, SLBA: 7, NLB: 1, Data: make([]byte, 512), Done: &done}}
		cids    []uint16
		cqes    [4]nvme.CompletionEntry
	)
	alloctest.AtMost(t, 0, 1, func() {
		done = sim.Completion{}
		if cids, err = qp.SubmitBatch(cids[:0], entries); err != nil {
			t.Fatal(err)
		}
		e.Run(0)
		if got := qp.PollAppend(cqes[:0], 0); len(got) != 1 || got[0].CID != cids[0] || !done.Done() {
			t.Fatalf("polled %v for CID %d, handle fired: %v", got, cids[0], done.Done())
		}
	})
}
