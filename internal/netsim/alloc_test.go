package netsim

import (
	"strings"
	"testing"
	"time"

	"aeolia/internal/alloctest"
	"aeolia/internal/sim"
)

// frameLoop wires a->b over a 1 µs link and runs a task on core 0 that, per
// cycle, takes a frame from a's free list, sends it, sleeps past its
// arrival, and receives and releases the oldest frame b holds. The first
// depth sends are not received, so b's inbox keeps a standing depth of that
// many frames. It returns the engine and the cycle counter.
func frameLoop(t *testing.T, depth int) (*sim.Engine, *int) {
	eng := newEngine(1)
	t.Cleanup(eng.Shutdown)
	f := New(eng, 1)
	f.Connect("a", "b", Config{Latency: time.Microsecond})
	a, b := f.Endpoint("a"), f.Endpoint("b")
	cycles := new(int)
	send := func(env *sim.Env) {
		if err := a.Send(env, "b", append(a.Frame(64), "frame"...)); err != nil {
			t.Error(err)
		}
	}
	eng.Spawn("loop", eng.Core(0), func(env *sim.Env) {
		for i := 0; i < depth; i++ {
			send(env)
		}
		for {
			send(env)
			env.Sleep(2 * time.Microsecond)
			m := b.TryRecv()
			if m == nil || string(m.Payload) != "frame" {
				t.Errorf("cycle %d: received %v", *cycles, m)
				return
			}
			b.Release(m)
			if b.Pending() != depth {
				t.Errorf("cycle %d: %d frames queued, want %d", *cycles, b.Pending(), depth)
				return
			}
			*cycles++
		}
	})
	return eng, cycles
}

func run(eng *sim.Engine, d time.Duration) func() {
	return func() { eng.Run(eng.Now() + d) }
}

// TestAllocsFrame: in engine context a frame costs the host nothing — the
// buffer from the sender's free list, the in-flight record, the departure
// and arrival events, the inbox slot, and the release back to the sender.
func TestAllocsFrame(t *testing.T) {
	eng, cycles := frameLoop(t, 0)
	alloctest.AtMost(t, 0, 1000, alloctest.More(cycles, 1000, run(eng, 10*time.Microsecond)))
}

// TestAllocsInboxStandingDepth is the inbox half of the walking-base bug: an
// inbox that always holds three frames used to reallocate on every delivery
// (TryRecv popped with inbox = inbox[1:]). 10 000 push/pop cycles allocate
// nothing now.
func TestAllocsInboxStandingDepth(t *testing.T) {
	eng, cycles := frameLoop(t, 3)
	alloctest.AtMost(t, 0, 10_000, alloctest.More(cycles, 10_000, run(eng, 100*time.Microsecond)))
}

// TestRecycledRecordRefusesToLand: an in-flight record goes back to its
// link's free list when it lands. Whoever still holds it — an arrival event
// scheduled twice, a kept pointer — must not be able to land it again, since
// its payload belongs to the next frame.
func TestRecycledRecordRefusesToLand(t *testing.T) {
	eng := newEngine(1)
	defer eng.Shutdown()
	f := New(eng, 1)
	l := f.Connect("a", "b", Config{Latency: time.Microsecond})
	send := func() {
		eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
			if err := f.Endpoint("a").Send(env, "b", []byte("x")); err != nil {
				t.Error(err)
			}
		})
		eng.Run(0)
	}
	send()
	if len(l.free) != 1 {
		t.Fatalf("%d records in the free list after one frame, want 1", len(l.free))
	}
	stale := l.free[0]
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), "after it was recycled") {
				t.Errorf("landing a recycled record: recovered %v, want the retention panic", r)
			}
		}()
		stale.land()
	}()
	if f.Endpoint("b").Pending() != 1 {
		t.Fatalf("%d frames delivered, want only the real one", f.Endpoint("b").Pending())
	}

	// The real path stays quiet: the same record carries the next frame.
	send()
	if len(l.free) != 1 || l.free[0] != stale || l.Delivered != 2 {
		t.Fatalf("record not reused: %d free, %d delivered", len(l.free), l.Delivered)
	}
}

// TestMsgKeptPastNextReceive: a received Msg lives in its endpoint until the
// next receive. A holder that keeps it longer reads the recycled marker —
// no payload, ids of -1 — not the next message's bytes, and a release
// through it hands nothing back.
func TestMsgKeptPastNextReceive(t *testing.T) {
	eng := newEngine(1)
	defer eng.Shutdown()
	f := New(eng, 1)
	f.Connect("a", "b", Config{Latency: time.Microsecond})
	a, b := f.Endpoint("a"), f.Endpoint("b")
	eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
		for _, p := range []string{"first", "second", "third"} {
			if err := a.Send(env, "b", append(a.Frame(len(p)), p...)); err != nil {
				t.Error(err)
			}
		}
	})
	eng.Run(0)

	kept := b.TryRecv()
	if kept == nil || string(kept.Payload) != "first" {
		t.Fatalf("first receive: %+v", kept)
	}
	second := b.TryRecv()
	if second == nil || string(second.Payload) != "second" {
		t.Fatalf("second receive: %+v", second)
	}
	if kept.Payload != nil || kept.SrcID != -1 || kept.DeliveredAt != -1 {
		t.Fatalf("a Msg kept past the next receive reads %+v, want the recycled marker", *kept)
	}
	free := func() int {
		if len(a.frames) <= minFrameClass {
			return 0
		}
		return len(a.frames[minFrameClass])
	}
	b.Release(kept)
	if n := free(); n != 0 {
		t.Fatalf("releasing a recycled Msg handed %d frame(s) back", n)
	}
	b.Release(second)
	b.Release(second) // its payload is gone after the first release
	if n := free(); n != 1 {
		t.Fatalf("%d frames back on the sender's free list after one release, want 1", n)
	}
	if got := a.Frame(10); cap(got) != 1<<minFrameClass || len(got) != 0 {
		t.Fatalf("Frame after a release returned len %d cap %d", len(got), cap(got))
	}
	if m := b.TryRecv(); m == nil || string(m.Payload) != "third" || second.SrcID != -1 {
		t.Fatalf("third receive %+v; the second Msg after it %+v", m, *second)
	}
}
