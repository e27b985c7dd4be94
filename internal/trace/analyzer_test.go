package trace

import (
	"strings"
	"testing"
	"time"
)

// evb builds synthetic event streams with auto-incrementing Seq.
type evb struct {
	seq uint64
	evs []Event
}

func (b *evb) add(at time.Duration, typ Type, core, qid int, cid uint32, lba, aux uint64) *evb {
	b.seq++
	b.evs = append(b.evs, Event{Seq: b.seq, At: at, Type: typ,
		Core: int32(core), QID: int32(qid), CID: cid, LBA: lba, Aux: aux})
	return b
}

// fullChain appends a complete, well-ordered single-command life to the
// stream: prep, doorbell, device, CQE, post, deliver, handler, consume.
func (b *evb) fullChain(at time.Duration, qid int, cid uint32) *evb {
	return b.
		add(at, SQEPrep, -1, qid, cid, 7, 1).
		add(at, DoorbellWrite, -1, qid, NoCID, 0, 1).
		add(at, DeviceStart, -1, qid, cid, 7, 1).
		add(at+5000, DeviceDone, -1, qid, cid, 7, 0).
		add(at+5000, CQEPost, -1, qid, cid, 0, 0).
		add(at+5000, IRQRaise, -1, qid, NoCID, 0, 1).
		add(at+5000, UPIDPost, 0, -1, NoCID, 0, 3).
		add(at+5000, UINTRDeliver, 0, -1, NoCID, 0, 1).
		add(at+5000, HandlerEnter, 0, -1, NoCID, 0, 3).
		add(at+5000, CQEConsume, -1, qid, cid, 0, 0).
		add(at+5000, HandlerExit, 0, -1, NoCID, 0, 3)
}

func hasViolation(a *Analyzer, rule string) bool {
	for _, v := range a.Violations {
		if strings.Contains(v.Rule, rule) {
			return true
		}
	}
	return false
}

func TestAnalyzerCleanChain(t *testing.T) {
	var b evb
	b.fullChain(0, 1, 1).fullChain(10000, 1, 2)
	a := Analyze(b.evs)
	if len(a.Violations) != 0 {
		t.Fatalf("clean trace produced violations: %v", a.Violations)
	}
	if len(a.Chains) != 2 {
		t.Fatalf("got %d chains, want 2", len(a.Chains))
	}
	for _, c := range a.Chains {
		if !c.Complete() || !c.Delivered() {
			t.Errorf("chain qid=%d cid=%d: Complete=%v Delivered=%v, want true/true",
				c.QID, c.CID, c.Complete(), c.Delivered())
		}
	}
}

func TestAnalyzerDeviceWithoutDoorbell(t *testing.T) {
	var b evb
	b.add(0, SQEPrep, -1, 1, 1, 7, 1).
		add(0, DeviceStart, -1, 1, 1, 7, 1) // no DoorbellWrite
	a := Analyze(b.evs)
	if !hasViolation(a, "doorbell-before-device") {
		t.Fatalf("missing doorbell-before-device violation, got %v", a.Violations)
	}
}

func TestAnalyzerDeviceOverrunsDoorbell(t *testing.T) {
	// One doorbell covering 1 command, but the device starts 2.
	var b evb
	b.add(0, SQEPrep, -1, 1, 1, 7, 1).
		add(0, DoorbellWrite, -1, 1, NoCID, 0, 1).
		add(0, DeviceStart, -1, 1, 1, 7, 1).
		add(0, DeviceStart, -1, 1, 2, 8, 1)
	a := Analyze(b.evs)
	if !hasViolation(a, "doorbell-before-device") {
		t.Fatalf("device consumed more SQEs than doorbells covered; got %v", a.Violations)
	}
}

func TestAnalyzerDuplicateCQE(t *testing.T) {
	var b evb
	b.fullChain(0, 1, 1).
		add(9000, CQEPost, -1, 1, 1, 0, 0) // second CQE for cid 1
	a := Analyze(b.evs)
	if !hasViolation(a, "cqe-exactly-once") {
		t.Fatalf("missing cqe-exactly-once violation, got %v", a.Violations)
	}
}

func TestAnalyzerConsumeWithoutPost(t *testing.T) {
	var b evb
	b.add(0, CQEConsume, -1, 1, 5, 0, 0)
	a := Analyze(b.evs)
	if !hasViolation(a, "cqe-exactly-once") {
		t.Fatalf("missing consume-without-post violation, got %v", a.Violations)
	}
}

func TestAnalyzerDuplicateConsume(t *testing.T) {
	var b evb
	b.fullChain(0, 1, 1).
		add(9000, CQEConsume, -1, 1, 1, 0, 0)
	a := Analyze(b.evs)
	if !hasViolation(a, "cqe-exactly-once") {
		t.Fatalf("missing duplicate-consume violation, got %v", a.Violations)
	}
}

func TestAnalyzerDeliveryWithoutPost(t *testing.T) {
	var b evb
	b.add(0, UINTRDeliver, 0, -1, NoCID, 0, 1) // recognized a vector, nothing posted
	a := Analyze(b.evs)
	if !hasViolation(a, "delivery-without-post") {
		t.Fatalf("missing delivery-without-post violation, got %v", a.Violations)
	}
}

func TestAnalyzerSpuriousDeliveryIsExempt(t *testing.T) {
	// Aux=0 marks a spurious re-delivery (dup notification after the PIR
	// was drained): legal, not a violation.
	var b evb
	b.add(0, UINTRDeliver, 0, -1, NoCID, 0, 0)
	a := Analyze(b.evs)
	if len(a.Violations) != 0 {
		t.Fatalf("spurious delivery must be exempt, got %v", a.Violations)
	}
}

// TestAnalyzerConsumeWhileHeld is the watchdog false-recovery signature: a
// completion joins an armed coalescing aggregation (IRQCoalesce, no raise
// yet) and something reaps it outside any handler bracket.
func TestAnalyzerConsumeWhileHeld(t *testing.T) {
	var b evb
	b.add(0, SQEPrep, -1, 1, 1, 7, 1).
		add(0, DoorbellWrite, -1, 1, NoCID, 0, 1).
		add(0, DeviceStart, -1, 1, 1, 7, 1).
		add(5000, DeviceDone, -1, 1, 1, 7, 0).
		add(5000, CQEPost, -1, 1, 1, 0, 0).
		add(5000, IRQCoalesce, -1, 1, 1, 0, 1). // joined an armed aggregation
		add(8000, CQEConsume, -1, 1, 1, 0, 0)   // reaped with no handler, no raise
	a := Analyze(b.evs)
	if !hasViolation(a, "consume-while-held") {
		t.Fatalf("missing consume-while-held violation, got %v", a.Violations)
	}
}

// The two legitimate ways a held completion gets consumed: inside a handler
// bracket after the aggregation raised, or via poll-suppression. Neither
// may trip the rule.
func TestAnalyzerHeldConsumeLegitimatePaths(t *testing.T) {
	// Raise path: coalesce → raise → deliver → handler consume.
	var b evb
	b.add(0, SQEPrep, -1, 1, 1, 7, 1).
		add(0, DoorbellWrite, -1, 1, NoCID, 0, 1).
		add(0, DeviceStart, -1, 1, 1, 7, 1).
		add(5000, DeviceDone, -1, 1, 1, 7, 0).
		add(5000, CQEPost, -1, 1, 1, 0, 0).
		add(5000, IRQCoalesce, -1, 1, 1, 0, 1).
		add(25000, IRQRaise, -1, 1, NoCID, 0, 1). // aggregation timer fired
		add(25000, UPIDPost, 0, -1, NoCID, 0, 3).
		add(25000, UINTRDeliver, 0, -1, NoCID, 0, 1).
		add(25000, HandlerEnter, 0, -1, NoCID, 0, 3).
		add(25000, CQEConsume, -1, 1, 1, 0, 0).
		add(25000, HandlerExit, 0, -1, NoCID, 0, 3)
	if a := Analyze(b.evs); len(a.Violations) != 0 {
		t.Fatalf("raise path: unexpected violations %v", a.Violations)
	}

	// Suppress path: the host polls the CQ dry before the timer fires.
	// The consume precedes the IRQSuppress in emission order (Poll emits
	// consumes first), but with no later raise the reap is legitimate...
	// except the analyzer flags it at consume time if nothing released
	// the queue. The device model emits IRQSuppress only after the drain,
	// so the suppression must retroactively not have been flagged — which
	// holds because in poll mode nothing is ever held (OnCompletion nil
	// means no IRQCoalesce events). Model that stream:
	var p evb
	p.add(0, SQEPrep, -1, 1, 1, 7, 1).
		add(0, DoorbellWrite, -1, 1, NoCID, 0, 1).
		add(0, DeviceStart, -1, 1, 1, 7, 1).
		add(5000, DeviceDone, -1, 1, 1, 7, 0).
		add(5000, CQEPost, -1, 1, 1, 0, 0).
		add(6000, CQEConsume, -1, 1, 1, 0, 0)
	if a := Analyze(p.evs); len(a.Violations) != 0 {
		t.Fatalf("poll path: unexpected violations %v", a.Violations)
	}
}

func TestAnalyzerCommitWithoutJournalWrite(t *testing.T) {
	var b evb
	b.add(0, JournalCommit, -1, -1, NoCID, 0, 1)
	a := Analyze(b.evs)
	if !hasViolation(a, "commit-after-journal-write") {
		t.Fatalf("missing commit-after-journal-write violation, got %v", a.Violations)
	}

	var ok evb
	ok.add(0, JournalWrite, -1, 0, NoCID, 100, 3).
		add(1000, JournalCommit, -1, -1, NoCID, 0, 1)
	if a := Analyze(ok.evs); len(a.Violations) != 0 {
		t.Fatalf("write-then-commit must be clean, got %v", a.Violations)
	}
}

// The rule is per journal instance (the events' CID): several AeoFS
// instances share one engine's tracer, and one's commit must neither
// consume nor be excused by another's batches.
func TestAnalyzerJournalRulePerInstance(t *testing.T) {
	const A, B = 7, 9
	var ok evb
	ok.add(0, JournalWrite, -1, 0, A, 100, 3).
		add(100, JournalWrite, -1, 2, B, 900, 5).
		add(1000, JournalCommit, -1, -1, A, 0, 4).
		add(1100, JournalCommit, -1, -1, B, 0, 6)
	if a := Analyze(ok.evs); len(a.Violations) != 0 {
		t.Fatalf("interleaved write-A write-B commit-A commit-B must be clean, got %v", a.Violations)
	}

	var bad evb
	bad.add(0, JournalWrite, -1, 0, A, 100, 3).
		add(1000, JournalCommit, -1, -1, B, 0, 1)
	if a := Analyze(bad.evs); !hasViolation(a, "commit-after-journal-write") {
		t.Fatalf("commit of B with only A's batch written must violate, got %v", a.Violations)
	}
}

func TestAnalyzerHandlerBracketBalance(t *testing.T) {
	var b evb
	b.add(0, HandlerExit, 0, -1, NoCID, 0, 3)
	if a := Analyze(b.evs); !hasViolation(a, "handler-bracket") {
		t.Fatal("missing handler-bracket violation for unmatched exit")
	}
	var u evb
	u.add(0, HandlerEnter, 0, -1, NoCID, 0, 3)
	if a := Analyze(u.evs); !hasViolation(a, "handler-bracket") {
		t.Fatal("missing handler-bracket violation for unclosed enter")
	}
}

func TestStageHistogramsAndLatencyTable(t *testing.T) {
	var b evb
	for i := 0; i < 8; i++ {
		b.fullChain(time.Duration(i)*10000, 1, uint32(i+1))
	}
	a := Analyze(b.evs)
	hs := a.StageHistograms()
	if hs[StageDevice].Count() != 8 {
		t.Fatalf("device stage count = %d, want 8", hs[StageDevice].Count())
	}
	if got := hs[StageDevice].Percentile(50); got != 5*time.Microsecond {
		t.Errorf("device P50 = %v, want 5µs (all chains identical)", got)
	}
	if got := hs[StageEndToEnd].Max(); got != 5*time.Microsecond {
		t.Errorf("end-to-end max = %v, want 5µs", got)
	}
	tbl := a.LatencyTable()
	if len(tbl.Rows) != 5 {
		t.Fatalf("latency table rows = %d, want 5 stages", len(tbl.Rows))
	}
}
