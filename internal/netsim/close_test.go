package netsim

import (
	"testing"
	"time"

	"aeolia/internal/sim"
)

// A closed endpoint that reopens (crash-restart on the same address) receives
// new traffic again, but messages dropped while closed stay dropped.
func TestReopenAfterClose(t *testing.T) {
	eng := newEngine(2)
	defer eng.Shutdown()
	f := New(eng, 3)
	f.Connect("a", "b", Config{Latency: time.Microsecond})
	b := f.Endpoint("b")
	b.Close()

	eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
		f.Endpoint("a").Send(env, "b", []byte("lost"))
		env.Sleep(10 * time.Microsecond)
		b.Reopen()
		f.Endpoint("a").Send(env, "b", []byte("kept"))
	})
	eng.Run(0)

	if b.DroppedClosed != 1 {
		t.Fatalf("DroppedClosed = %d, want 1", b.DroppedClosed)
	}
	m := b.TryRecv()
	if m == nil || string(m.Payload) != "kept" {
		t.Fatalf("post-reopen delivery = %v, want \"kept\"", m)
	}
}

// SetDown partitions a link: in-flight and new messages are dropped and
// accounted until the link heals.
func TestLinkSetDownPartitions(t *testing.T) {
	eng := newEngine(2)
	defer eng.Shutdown()
	f := New(eng, 3)
	l := f.Connect("a", "b", Config{Latency: 10 * time.Microsecond})
	b := f.Endpoint("b")

	eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
		// In flight when the partition hits.
		f.Endpoint("a").Send(env, "b", []byte("m1"))
		l.SetDown(true)
		f.Endpoint("a").Send(env, "b", []byte("m2"))
		env.Sleep(50 * time.Microsecond)
		l.SetDown(false)
		f.Endpoint("a").Send(env, "b", []byte("m3"))
	})
	eng.Run(0)

	if l.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2 (in-flight + during-partition)", l.Dropped)
	}
	m := b.TryRecv()
	if m == nil || string(m.Payload) != "m3" {
		t.Fatalf("post-heal delivery = %v, want \"m3\"", m)
	}
	if b.TryRecv() != nil {
		t.Fatal("partitioned messages leaked through")
	}
}
