// The fabric's fault-plan tests. They are an external test package: the
// fault-injection package's crash matrix imports the stack above netsim.
package netsim_test

import (
	"testing"
	"time"

	"aeolia/internal/faultinject"
	"aeolia/internal/netsim"
	"aeolia/internal/sched"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

func TestFaultInjectedLoss(t *testing.T) {
	eng := sim.NewEngine(2, sched.NewEEVDF())
	defer eng.Shutdown()
	f := netsim.New(eng, 1)
	f.UsePlan(faultinject.NewPlan(9).On("net:drop:a->b", faultinject.Once()))
	f.Connect("a", "b", netsim.Config{Latency: time.Microsecond})

	var got []netsim.Msg
	eng.Spawn("rx", eng.Core(1), func(env *sim.Env) {
		got = append(got, *f.Endpoint("b").Recv(env))
	})
	eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
		f.Endpoint("a").Send(env, "b", []byte("one"))
		f.Endpoint("a").Send(env, "b", []byte("two"))
	})
	eng.Run(0)
	if len(got) != 1 || string(got[0].Payload) != "two" {
		t.Fatalf("got %d message(s), want only \"two\" to survive", len(got))
	}
	l := f.Links()[0]
	if l.Dropped != 1 || l.Sent != 2 || l.Delivered != 1 {
		t.Fatalf("stats sent=%d delivered=%d dropped=%d, want 2/1/1",
			l.Sent, l.Delivered, l.Dropped)
	}
}

func TestFaultInjectedDuplication(t *testing.T) {
	eng := sim.NewEngine(2, sched.NewEEVDF())
	defer eng.Shutdown()
	tr := trace.New(2, 0)
	eng.Tracer = tr
	f := netsim.New(eng, 1)
	f.UsePlan(faultinject.NewPlan(9).On("net:dup:a->b", faultinject.Once()))
	f.Connect("a", "b", netsim.Config{Latency: time.Microsecond})

	var got []netsim.Msg
	eng.Spawn("rx", eng.Core(1), func(env *sim.Env) {
		for i := 0; i < 2; i++ {
			got = append(got, *f.Endpoint("b").Recv(env))
		}
	})
	eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
		f.Endpoint("a").Send(env, "b", []byte("once"))
	})
	eng.Run(0)
	if len(got) != 2 {
		t.Fatalf("received %d message(s), want the duplicate too", len(got))
	}
	if !got[1].Dup && !got[0].Dup {
		t.Fatal("no delivered message carries the Dup mark")
	}
	l := f.Links()[0]
	if l.Duped != 1 || l.Sent != 2 {
		t.Fatalf("stats sent=%d duped=%d, want 2/1", l.Sent, l.Duped)
	}
	// The duplicate emitted its own NetSend, so the analyzer's link
	// accounting stays clean.
	an := trace.Analyze(tr.Events())
	if len(an.Violations) != 0 {
		t.Fatalf("dup trace produced violations: %v", an.Violations)
	}
}

func TestTraceAccounting(t *testing.T) {
	eng := sim.NewEngine(2, sched.NewEEVDF())
	defer eng.Shutdown()
	tr := trace.New(2, 0)
	eng.Tracer = tr
	f := netsim.New(eng, 3)
	f.UsePlan(faultinject.NewPlan(5).On("net:drop:a->b", faultinject.At(3)))
	f.Connect("a", "b", netsim.Config{Latency: 2 * time.Microsecond, BytesPerSec: 1e9})

	const n = 10
	eng.Spawn("rx", eng.Core(1), func(env *sim.Env) {
		for i := 0; i < n-1; i++ {
			f.Endpoint("b").Recv(env)
		}
	})
	eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
		for i := 0; i < n; i++ {
			f.Endpoint("a").Send(env, "b", make([]byte, 128))
		}
	})
	eng.Run(0)
	var sends, delivers, drops int
	for _, e := range tr.Events() {
		switch e.Type {
		case trace.NetSend:
			sends++
		case trace.NetDeliver:
			delivers++
		case trace.NetDrop:
			drops++
		}
	}
	if sends != n || delivers != n-1 || drops != 1 {
		t.Fatalf("trace counts send=%d deliver=%d drop=%d, want %d/%d/1",
			sends, delivers, drops, n, n-1)
	}
	if an := trace.Analyze(tr.Events()); len(an.Violations) != 0 {
		t.Fatalf("violations: %v", an.Violations)
	}
}

// Regression: a seeded duplicate delivery must not re-wake a receiver after
// connection close. Before the fix, a dup still in flight when the receiver
// closed would land in the inbox and fire the delivery hook / arrival
// completion, waking a task that had already shut down.
func TestDupAfterCloseDroppedAndAccounted(t *testing.T) {
	eng := sim.NewEngine(2, sched.NewEEVDF())
	defer eng.Shutdown()
	f := netsim.New(eng, 3)
	f.Connect("a", "b", netsim.Config{Latency: 10 * time.Microsecond})
	// Duplicate every transmission on a->b.
	plan := faultinject.NewPlan(1)
	plan.On("net:dup:a->b", faultinject.Always())
	f.UsePlan(plan)

	b := f.Endpoint("b")
	var woken int
	b.SetOnDeliver(func(*netsim.Msg) { woken++ })

	eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
		if err := f.Endpoint("a").Send(env, "b", []byte("payload")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	// Consume the first delivery, then close — while the dup is still in
	// flight (both copies arrive at the same latency horizon, so close at
	// the first hook invocation).
	b.SetOnDeliver(func(*netsim.Msg) {
		woken++
		if m := b.TryRecv(); m == nil {
			t.Error("hook fired with empty inbox")
		}
		b.Close()
	})
	eng.Run(0)

	if woken != 1 {
		t.Fatalf("receiver woken %d times; the duplicate must not re-wake a closed endpoint", woken)
	}
	if b.DroppedClosed != 1 {
		t.Fatalf("DroppedClosed = %d, want 1 (the dup)", b.DroppedClosed)
	}
	if b.Pending() != 0 {
		t.Fatalf("closed endpoint holds %d pending message(s)", b.Pending())
	}
	l := f.Links()[0]
	if l.Duped != 1 || l.Dropped != 1 {
		t.Fatalf("link accounting Duped=%d Dropped=%d, want 1/1", l.Duped, l.Dropped)
	}
	// Sent == Delivered + Dropped must balance so trace accounting holds.
	if l.Sent != l.Delivered+l.Dropped {
		t.Fatalf("link books don't balance: sent=%d delivered=%d dropped=%d",
			l.Sent, l.Delivered, l.Dropped)
	}
}
