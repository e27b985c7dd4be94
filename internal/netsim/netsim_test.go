package netsim

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"aeolia/internal/sched"
	"aeolia/internal/sim"
)

func newEngine(cores int) *sim.Engine {
	return sim.NewEngine(cores, sched.NewEEVDF())
}

func TestLatencyAndBandwidth(t *testing.T) {
	eng := newEngine(2)
	defer eng.Shutdown()
	f := New(eng, 1)
	f.Connect("a", "b", Config{Latency: 10 * time.Microsecond, BytesPerSec: 1e9})

	var got *Msg
	eng.Spawn("rx", eng.Core(1), func(env *sim.Env) {
		got = f.Endpoint("b").Recv(env)
	})
	eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
		if err := f.Endpoint("a").Send(env, "b", make([]byte, 1000)); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	eng.Run(0)
	if got == nil {
		t.Fatal("message not delivered")
	}
	// 1000 bytes at 1 GB/s = 1us serialization, plus 10us propagation.
	want := 11 * time.Microsecond
	if d := got.DeliveredAt - got.SentAt; d != want {
		t.Fatalf("flight time = %v, want %v", d, want)
	}
}

func TestFIFOUnderJitter(t *testing.T) {
	eng := newEngine(2)
	defer eng.Shutdown()
	f := New(eng, 7)
	f.Connect("a", "b", Config{Latency: 5 * time.Microsecond,
		Jitter: 5 * time.Microsecond, QueueDepth: 128})

	const n = 50
	var msgs []Msg // copies: a received *Msg is valid until the next receive
	eng.Spawn("rx", eng.Core(1), func(env *sim.Env) {
		for i := 0; i < n; i++ {
			msgs = append(msgs, *f.Endpoint("b").Recv(env))
		}
	})
	eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
		for i := 0; i < n; i++ {
			if err := f.Endpoint("a").Send(env, "b", []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	eng.Run(0)
	if len(msgs) != n {
		t.Fatalf("received %d messages, want %d", len(msgs), n)
	}
	for i, m := range msgs {
		if m.Payload[0] != byte(i) {
			t.Fatalf("message %d out of order (payload %d)", i, m.Payload[0])
		}
		if i > 0 && m.DeliveredAt < msgs[i-1].DeliveredAt {
			t.Fatalf("arrival times regressed at %d: %v < %v",
				i, m.DeliveredAt, msgs[i-1].DeliveredAt)
		}
	}
}

func TestBoundedQueueOverflow(t *testing.T) {
	eng := newEngine(1)
	defer eng.Shutdown()
	f := New(eng, 1)
	// 100-byte messages serialize in 100us each: back-to-back sends pile
	// up in the transmit queue.
	f.Connect("a", "b", Config{BytesPerSec: 1e6, QueueDepth: 4})

	var errs []error
	eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
		for i := 0; i < 6; i++ {
			errs = append(errs, f.Endpoint("a").Send(env, "b", make([]byte, 100)))
		}
	})
	eng.Run(0)
	for i := 0; i < 4; i++ {
		if errs[i] != nil {
			t.Fatalf("send %d rejected below the bound: %v", i, errs[i])
		}
	}
	for i := 4; i < 6; i++ {
		if !errors.Is(errs[i], ErrOverflow) {
			t.Fatalf("send %d = %v, want ErrOverflow", i, errs[i])
		}
	}
	if l := f.Links()[0]; l.Overflows != 2 {
		t.Fatalf("Overflows = %d, want 2", l.Overflows)
	}
}

func TestNoRoute(t *testing.T) {
	eng := newEngine(1)
	defer eng.Shutdown()
	f := New(eng, 1)
	var err error
	eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
		err = f.Endpoint("a").Send(env, "nowhere", []byte("x"))
	})
	eng.Run(0)
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

// runPattern sends n jittered messages and returns their delivery times.
func runPattern(seed uint64, n int) []time.Duration {
	eng := newEngine(2)
	defer eng.Shutdown()
	f := New(eng, seed)
	f.Connect("a", "b", Config{Latency: 3 * time.Microsecond,
		BytesPerSec: 1e9, Jitter: 8 * time.Microsecond, QueueDepth: 256})
	var at []time.Duration
	eng.Spawn("rx", eng.Core(1), func(env *sim.Env) {
		for i := 0; i < n; i++ {
			at = append(at, f.Endpoint("b").Recv(env).DeliveredAt)
		}
	})
	eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
		for i := 0; i < n; i++ {
			f.Endpoint("a").Send(env, "b", make([]byte, 64+i))
			env.Sleep(time.Microsecond)
		}
	})
	eng.Run(0)
	return at
}

func TestDeterministicTimeline(t *testing.T) {
	a := runPattern(42, 40)
	b := runPattern(42, 40)
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("incomplete runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	c := runPattern(43, 40)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jittered timelines")
	}
}

func TestOnDeliverHookOwnsWakeup(t *testing.T) {
	eng := newEngine(2)
	defer eng.Shutdown()
	f := New(eng, 1)
	f.Connect("a", "b", Config{Latency: time.Microsecond})
	b := f.Endpoint("b")

	hooks := 0
	b.SetOnDeliver(func(m *Msg) {
		hooks++
		// The hook owns the wakeup (stand-in for the uintr path).
		b.SignalArrival()
	})
	var got *Msg
	eng.Spawn("rx", eng.Core(1), func(env *sim.Env) {
		got = b.Recv(env)
	})
	eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
		f.Endpoint("a").Send(env, "b", []byte("hi"))
	})
	eng.Run(0)
	if hooks != 1 || got == nil {
		t.Fatalf("hooks=%d got=%v, want 1 and a delivered message", hooks, got)
	}
}

func TestEndpointIDsStable(t *testing.T) {
	mk := func() []int {
		eng := newEngine(1)
		defer eng.Shutdown()
		f := New(eng, 1)
		var ids []int
		for i := 0; i < 5; i++ {
			ids = append(ids, f.Endpoint(fmt.Sprintf("c%d", i)).ID())
		}
		return ids
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] || a[i] != i {
			t.Fatalf("endpoint ids not stable: %v vs %v", a, b)
		}
	}
}
