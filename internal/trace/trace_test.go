package trace

import (
	"testing"
	"time"
)

func TestEventsMergeInEmissionOrder(t *testing.T) {
	tr := New(2, 16)
	// Interleave emissions across the device ring (core -1) and two core
	// rings; Events must return them in global emission order.
	tr.Emit(0, SQEPrep, -1, 1, 1, 10, 1)
	tr.Emit(1, UPIDPost, 0, -1, NoCID, 0, 3)
	tr.Emit(2, CQEPost, -1, 1, 1, 0, 0)
	tr.Emit(3, UINTRDeliver, 1, -1, NoCID, 0, 1)
	tr.Emit(4, HandlerEnter, 0, -1, NoCID, 0, 3)

	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	want := []Type{SQEPrep, UPIDPost, CQEPost, UINTRDeliver, HandlerEnter}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: Seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.Type != want[i] {
			t.Errorf("event %d: Type = %v, want %v", i, e.Type, want[i])
		}
	}
	if tr.Len() != 5 || tr.Dropped() != 0 {
		t.Errorf("Len/Dropped = %d/%d, want 5/0", tr.Len(), tr.Dropped())
	}
}

func TestRingWrapKeepsNewestAndCountsDropped(t *testing.T) {
	tr := New(0, 4) // one ring, capacity 4
	for i := 0; i < 10; i++ {
		tr.Emit(time.Duration(i), CQEPost, -1, 0, uint32(i), 0, 0)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint32(6 + i); e.CID != want {
			t.Errorf("retained event %d: CID = %d, want %d (newest survive)", i, e.CID, want)
		}
	}
}

func TestCoreRoutingAndOutOfRangeCores(t *testing.T) {
	tr := New(1, 8)
	tr.Emit(0, SQEPrep, -1, 0, 1, 0, 0) // device ring
	tr.Emit(0, UPIDPost, 0, -1, NoCID, 0, 0)
	tr.Emit(0, UPIDPost, 99, -1, NoCID, 0, 0) // out of range -> ring 0
	if got := len(tr.Events()); got != 3 {
		t.Fatalf("got %d events, want 3", got)
	}
	if tr.rings[0].n != 2 || tr.rings[1].n != 1 {
		t.Errorf("ring fills = %d/%d, want 2/1",
			tr.rings[0].n, tr.rings[1].n)
	}
}

func TestNilTracerIsANoOpSink(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, SQEPrep, 0, 0, 0, 0, 0) // must not panic
	tr.Reset()
	if tr.Events() != nil || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must report an empty trace")
	}
}

func TestReset(t *testing.T) {
	tr := New(1, 8)
	tr.Emit(0, SQEPrep, -1, 0, 1, 0, 0)
	tr.Reset()
	if len(tr.Events()) != 0 || tr.Len() != 0 {
		t.Fatal("Reset must discard all events")
	}
	tr.Emit(0, SQEPrep, -1, 0, 2, 0, 0)
	if evs := tr.Events(); len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatal("sequence must restart after Reset")
	}
}

// BenchmarkEmitDisabled measures the nil-sink fast path — the cost every
// emit point pays in production runs with tracing off. This must stay in
// the single-nanosecond range so the qdsweep hot path is unaffected.
func BenchmarkEmitDisabled(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		tr.Emit(0, CQEPost, -1, 0, uint32(i), 0, 0)
	}
}

// BenchmarkEmitEnabled measures the enabled path: two counter bumps and a
// slot store.
func BenchmarkEmitEnabled(b *testing.B) {
	tr := New(1, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(0, CQEPost, -1, 0, uint32(i), 0, 0)
	}
}
