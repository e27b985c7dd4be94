package nvme_test

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"aeolia/internal/nvme"
)

// TestBatchRingInvariants is the property test locking in the SQ/CQ ring
// rules under batched submission. For random queue depths and random batch
// size sequences it checks, after every batch and at every drain:
//
//   - SQ/CQ head and tail indices stay inside [0, depth);
//   - the CQ head never crosses the tail (occupancy stays in [0, depth]);
//   - the phase bit flips exactly once per CQ wrap (i.e. it equals the
//     initial phase iff the number of completed laps is even);
//   - every submitted CID completes exactly once — no lost and no
//     duplicated completion.
func TestBatchRingInvariants(t *testing.T) {
	prop := func(depthSeed uint8, sizes []uint8) bool {
		depth := 2 + int(depthSeed%31) // 2..32
		e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 4096})
		qp, err := d.CreateQueuePair(depth)
		if err != nil {
			t.Fatal(err)
		}
		initialPhase := qp.PhaseBit()
		buf := make([]byte, 512)
		seen := make(map[uint16]int)
		completedTotal := 0
		submittedTotal := 0

		checkRings := func(where string) bool {
			if h, tl := qp.SQHead(), qp.SQTail(); h < 0 || h >= depth || tl < 0 || tl >= depth {
				t.Logf("%s: SQ head/tail out of range: %d/%d depth %d", where, h, tl, depth)
				return false
			}
			if h, tl := qp.CQHead(), qp.CQTail(); h < 0 || h >= depth || tl < 0 || tl >= depth {
				t.Logf("%s: CQ head/tail out of range: %d/%d depth %d", where, h, tl, depth)
				return false
			}
			if occ := qp.CQOccupied(); occ < 0 || occ > depth {
				t.Logf("%s: CQ occupancy %d outside [0,%d]", where, occ, depth)
				return false
			}
			// Head + occupancy must land on the tail: the head never
			// crosses it.
			if (qp.CQHead()+qp.CQOccupied())%depth != qp.CQTail() {
				t.Logf("%s: CQ head %d + occupied %d inconsistent with tail %d",
					where, qp.CQHead(), qp.CQOccupied(), qp.CQTail())
				return false
			}
			// Phase flips once per wrap: after completedTotal posts the
			// device has wrapped completedTotal/depth times.
			wantPhase := initialPhase
			if (completedTotal/depth)%2 == 1 {
				wantPhase = !initialPhase
			}
			if qp.PhaseBit() != wantPhase {
				t.Logf("%s: phase %v after %d completions (depth %d), want %v",
					where, qp.PhaseBit(), completedTotal, depth, wantPhase)
				return false
			}
			return true
		}

		drain := func() bool {
			e.Run(0)
			completedTotal = int(qp.Completed)
			for _, ce := range qp.Poll(0) {
				seen[ce.CID]++
			}
			return checkRings("drain")
		}

		for _, sz := range sizes {
			n := 1 + int(sz%uint8(depth)) // 1..depth, may exceed free space
			entries := make([]nvme.SubmissionEntry, n)
			for i := range entries {
				entries[i] = nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: uint64(i % 4096), NLB: 1, Data: buf}
			}
			subs, err := qp.SubmitBatch(nil, entries)
			if errors.Is(err, nvme.ErrSQFull) {
				// Over-capacity batches must be rejected wholesale:
				// nothing submitted, rings untouched.
				if !drain() {
					return false
				}
				continue
			}
			if err != nil {
				t.Logf("SubmitBatch: %v", err)
				return false
			}
			if len(subs) != n {
				t.Logf("SubmitBatch returned %d handles for %d entries", len(subs), n)
				return false
			}
			submittedTotal += n
			if !checkRings("post-submit") {
				return false
			}
			if !drain() {
				return false
			}
		}
		if !drain() {
			return false
		}
		// Exactly-once: every accepted CID completed once.
		if len(seen) != submittedTotal {
			t.Logf("completed %d distinct CIDs, submitted %d", len(seen), submittedTotal)
			return false
		}
		for cid, cnt := range seen {
			if cnt != 1 {
				t.Logf("CID %d completed %d times", cid, cnt)
				return false
			}
		}
		e.Shutdown()
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchAtomicRejection: a batch larger than the SQ's free space is
// rejected with ErrSQFull and leaves no partial state behind — no pending
// commands, no ring movement, no doorbell write.
func TestSubmitBatchAtomicRejection(t *testing.T) {
	_, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 64})
	qp, _ := d.CreateQueuePair(4)
	buf := make([]byte, 512)
	entries := make([]nvme.SubmissionEntry, 4) // depth-1 == 3 is the max
	for i := range entries {
		entries[i] = nvme.SubmissionEntry{Opcode: nvme.OpWrite, SLBA: uint64(i), NLB: 1, Data: buf}
	}
	tail, doorbells := qp.SQTail(), qp.SQDoorbells
	if _, err := qp.SubmitBatch(nil, entries); !errors.Is(err, nvme.ErrSQFull) {
		t.Fatalf("oversized batch: %v, want ErrSQFull", err)
	}
	if qp.SQTail() != tail || qp.SQDoorbells != doorbells || qp.Inflight() != 0 {
		t.Fatalf("rejected batch left state behind: tail %d→%d doorbells %d→%d inflight %d",
			tail, qp.SQTail(), doorbells, qp.SQDoorbells, qp.Inflight())
	}
	// A batch that exactly fits is accepted with a single doorbell write.
	if _, err := qp.SubmitBatch(nil, entries[:3]); err != nil {
		t.Fatalf("exact-fit batch: %v", err)
	}
	if qp.SQDoorbells != doorbells+1 {
		t.Fatalf("SQDoorbells = %d after one batch, want %d", qp.SQDoorbells, doorbells+1)
	}
	if qp.MaxSQBurst != 3 {
		t.Fatalf("MaxSQBurst = %d, want 3", qp.MaxSQBurst)
	}
}

// TestInterruptCoalescing: with MaxEvents=4 the CQ interrupt fires on the
// 4th completion, not before; a partial aggregation fires MaxDelay after its
// first completion; and polling the CQ dry suppresses the armed interrupt.
func TestInterruptCoalescing(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 64})
	qp, _ := d.CreateQueuePair(16)
	qp.SetCoalescing(nvme.Coalescing{MaxEvents: 4, MaxDelay: 50 * time.Microsecond})
	irqs := 0
	qp.OnCompletion = func(q *nvme.QueuePair) { irqs++ }
	buf := make([]byte, 512)
	submitN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: uint64(i), NLB: 1, Data: buf}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Threshold path: 4 completions -> exactly 1 interrupt.
	submitN(4)
	e.Run(0)
	if irqs != 1 {
		t.Fatalf("irqs = %d after MaxEvents completions, want 1", irqs)
	}
	if qp.IRQCoalesced != 3 || qp.IRQRaised != 1 {
		t.Fatalf("IRQCoalesced/IRQRaised = %d/%d, want 3/1", qp.IRQCoalesced, qp.IRQRaised)
	}
	qp.Poll(0)

	// Timer path: 2 completions sit below the threshold until MaxDelay
	// expires, then one aggregated interrupt fires.
	submitN(2)
	e.Run(e.Now() + 20*time.Microsecond)
	if irqs != 1 {
		t.Fatalf("irqs = %d before aggregation time, want still 1", irqs)
	}
	if !qp.NotifyPending() {
		t.Fatal("NotifyPending = false while aggregation is armed")
	}
	e.Run(e.Now() + 100*time.Microsecond)
	if irqs != 2 {
		t.Fatalf("irqs = %d after aggregation time, want 2", irqs)
	}
	qp.Poll(0)

	// Suppression path: polling consumes the aggregated CQEs before the
	// timer fires; the armed interrupt is cancelled, not raised.
	submitN(2)
	e.Run(e.Now() + 20*time.Microsecond) // completions post, timer still armed
	qp.Poll(0)
	if qp.NotifyPending() {
		t.Fatal("NotifyPending = true after the poll drained the CQ")
	}
	e.Run(e.Now() + 200*time.Microsecond)
	if irqs != 2 {
		t.Fatalf("irqs = %d after suppressed aggregation, want still 2", irqs)
	}
	if qp.IRQSuppressed != 2 {
		t.Fatalf("IRQSuppressed = %d, want 2", qp.IRQSuppressed)
	}
	e.Shutdown()
}
