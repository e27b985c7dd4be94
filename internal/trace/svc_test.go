package trace

import (
	"testing"
	"time"
)

// svcChain appends a complete admitted request life to the stream:
// received, admitted, fs-op done, replied.
func (b *evb) svcChain(at time.Duration, conn int, req uint32) *evb {
	return b.
		add(at, SvcReqRecv, 0, conn, req, 0, 3).
		add(at+500, SvcAdmit, 0, conn, req, 0, 1).
		add(at+8000, SvcFSOp, 1, conn, req, 0, 4096).
		add(at+8500, SvcReply, 1, conn, req, 0, 0)
}

// shedChain appends a complete shed request life: received, shed, replied.
func (b *evb) shedChain(at time.Duration, conn int, req uint32) *evb {
	return b.
		add(at, SvcReqRecv, 0, conn, req, 0, 3).
		add(at+500, SvcShed, 0, conn, req, 0, 1).
		add(at+600, SvcReply, 0, conn, req, 0, 1)
}

func TestSvcAnalyzerCleanChains(t *testing.T) {
	var b evb
	b.svcChain(0, 7, 1).svcChain(20000, 7, 2).shedChain(40000, 8, 1)
	a := Analyze(b.evs)
	if len(a.Violations) != 0 {
		t.Fatalf("clean trace produced violations: %v", a.Violations)
	}
	if len(a.SvcChains) != 3 {
		t.Fatalf("got %d svc chains, want 3", len(a.SvcChains))
	}
	for _, c := range a.SvcChains {
		if !c.Complete() {
			t.Errorf("chain conn=%d req=%d incomplete: %+v", c.Conn, c.Req, c)
		}
	}
	shed := a.SvcChains[key(8, 1)]
	if shed == nil || !shed.Shed || shed.Admit >= 0 {
		t.Fatalf("shed chain misreconstructed: %+v", shed)
	}
}

func TestSvcAnalyzerReqIDReuse(t *testing.T) {
	var b evb
	b.svcChain(0, 7, 1).svcChain(20000, 7, 1)
	a := Analyze(b.evs)
	if !hasViolation(a, "svc-reqid-reuse") {
		t.Fatalf("duplicate request id undetected: %v", a.Violations)
	}
}

func TestSvcAnalyzerCausalOrder(t *testing.T) {
	// Admit, fs-op, and reply each without a preceding recv.
	var b evb
	b.add(0, SvcAdmit, 0, 7, 1, 0, 1)
	b.add(0, SvcFSOp, 0, 7, 2, 0, 0)
	b.add(0, SvcReply, 0, 7, 3, 0, 0)
	a := Analyze(b.evs)
	n := 0
	for _, v := range a.Violations {
		if v.Rule == "svc-causal-order" {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("got %d svc-causal-order violations, want 3: %v", n, a.Violations)
	}
}

func TestSvcAnalyzerAdmitOrShed(t *testing.T) {
	var b evb
	b.add(0, SvcReqRecv, 0, 7, 1, 0, 3).
		add(100, SvcShed, 0, 7, 1, 0, 1).
		add(200, SvcAdmit, 0, 7, 1, 0, 1)
	a := Analyze(b.evs)
	if !hasViolation(a, "svc-admit-or-shed") {
		t.Fatalf("admit-after-shed undetected: %v", a.Violations)
	}

	var b2 evb
	b2.svcChain(0, 7, 1)
	b2.add(9000, SvcAdmit, 0, 7, 1, 0, 1)
	if a := Analyze(b2.evs); !hasViolation(a, "svc-admit-or-shed") {
		t.Fatalf("double admit undetected: %v", a.Violations)
	}
}

func TestSvcAnalyzerReplyExactlyOnce(t *testing.T) {
	var b evb
	b.svcChain(0, 7, 1).add(9000, SvcReply, 1, 7, 1, 0, 0)
	a := Analyze(b.evs)
	if !hasViolation(a, "svc-reply-exactly-once") {
		t.Fatalf("double reply undetected: %v", a.Violations)
	}
}

func TestNetAnalyzerDeliverWithoutSend(t *testing.T) {
	var b evb
	b.add(0, NetSend, -1, 3, NoCID, 0, 64).
		add(5000, NetDeliver, -1, 3, NoCID, 0, 64).
		add(6000, NetDeliver, -1, 3, NoCID, 0, 64)
	a := Analyze(b.evs)
	if !hasViolation(a, "net-deliver-without-send") {
		t.Fatalf("phantom delivery undetected: %v", a.Violations)
	}

	// A drop accounts against the sent budget too.
	var b2 evb
	b2.add(0, NetSend, -1, 3, NoCID, 0, 64).
		add(5000, NetDrop, -1, 3, NoCID, 0, 64).
		add(6000, NetDeliver, -1, 3, NoCID, 0, 64)
	if a := Analyze(b2.evs); !hasViolation(a, "net-deliver-without-send") {
		t.Fatalf("delivery after drop of the only send undetected: %v", a.Violations)
	}

	// Send+deliver and send+drop pairs are clean.
	var b3 evb
	b3.add(0, NetSend, -1, 3, NoCID, 0, 64).
		add(5000, NetDeliver, -1, 3, NoCID, 0, 64).
		add(6000, NetSend, -1, 3, NoCID, 0, 64).
		add(9000, NetDrop, -1, 3, NoCID, 0, 64)
	if a := Analyze(b3.evs); len(a.Violations) != 0 {
		t.Fatalf("clean net trace produced violations: %v", a.Violations)
	}
}

func TestSvcLatencyTable(t *testing.T) {
	var b evb
	for i := uint32(1); i <= 10; i++ {
		b.svcChain(time.Duration(i)*20000, 7, i)
	}
	b.shedChain(500000, 8, 1)
	a := Analyze(b.evs)
	hs := a.SvcStageHistograms()
	if got := hs[SvcStageEndToEnd].Count(); got != 10 {
		t.Fatalf("end-to-end count = %d, want 10 (shed chains excluded)", got)
	}
	if hs[SvcStageRecvToAdmit].Percentile(50) != 500 {
		t.Fatalf("recv→admit p50 = %v, want 500ns",
			hs[SvcStageRecvToAdmit].Percentile(50))
	}
	tbl := a.SvcLatencyTable()
	if len(tbl.Rows) != 4 {
		t.Fatalf("latency table has %d rows, want 4", len(tbl.Rows))
	}
}

func TestSvcAnalyzerShedBeforeRecv(t *testing.T) {
	var b evb
	b.add(0, SvcShed, 0, 7, 1, 0, 1)
	a := Analyze(b.evs)
	if !hasViolationMsg(a, "svc-causal-order", "shed before being received") {
		t.Fatalf("shed before recv undetected: %v", a.Violations)
	}
}
