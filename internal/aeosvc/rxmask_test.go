package aeosvc

import (
	"fmt"
	"testing"
	"time"

	"aeolia/internal/netsim"
	"aeolia/internal/sim"
)

// Interrupt mitigation at the service edge: the dispatcher's receive port
// masks notifications while it polls and the kernel path masks them on wake.
// These tests drive the dispatcher with hand-timed frames from raw endpoints
// (no Client: its backoff and think time would blur the 50 ns offsets).

// exactLink has no jitter and no serialization delay, so a frame sent at t
// (after the sender's TxCost) lands at exactly t + 5 us.
var exactLink = netsim.Config{Latency: 5 * time.Microsecond, QueueDepth: 256}

// probe is a request every layer answers: the worker refuses the unopened
// handle and replies StatusErr.
func probe(id uint64) []byte {
	req := Request{ID: id, Op: OpFsync, FD: 99}
	return req.Encode()
}

// sender spawns a task on core that, for each i < n, sleeps until at(i) from
// now and then sends frames(i) back to back (TxCost apart) from endpoint src. Two
// senders alone on their cores pay identical wake-up costs, so the offset
// between their at() values is the offset between their frames' arrivals.
func (r *rig) sender(core int, src string, n int, at func(int) time.Duration, frames func(int) [][]byte) {
	ep, t0 := r.fab.Endpoint(src), r.m.Eng.Now()
	r.m.Eng.Spawn("tx-"+src, r.m.Eng.Core(core), func(env *sim.Env) {
		for i := 0; i < n; i++ {
			env.Sleep(t0 + at(i) - env.Now())
			for _, f := range frames(i) {
				if err := ep.Send(env, "svc", f); err != nil {
					panic(fmt.Sprintf("send from %s: %v", src, err))
				}
			}
		}
	})
}

// burst sends k probes from c0, one every gap, starting 100 us from now.
func (r *rig) burst(k int, gap time.Duration) {
	r.fab.Connect("c0", "svc", exactLink)
	r.fab.Connect("svc", "c0", exactLink)
	ep := r.fab.Endpoint("c0")
	r.m.Eng.Spawn("tx-c0", r.m.Eng.Core(2), func(env *sim.Env) {
		env.Sleep(100 * time.Microsecond)
		for id := 1; id <= k; id++ {
			if err := ep.Send(env, "svc", probe(uint64(id))); err != nil {
				panic(fmt.Sprintf("send from c0: %v", err))
			}
			env.Exec(gap - netsim.TxCost)
		}
	})
}

// hog keeps a compute task runnable on the dispatcher's core, so the
// dispatcher's wait blocks instead of actively checking.
func (r *rig) hog() {
	r.m.Eng.Spawn("hog", r.m.Eng.Core(0), func(env *sim.Env) {
		for !r.srv.stopped {
			env.Exec(50 * time.Microsecond)
		}
	})
}

// replies drains the named raw endpoints and returns how many times each
// request id was answered.
func (r *rig) replies(t *testing.T, names ...string) map[uint64]int {
	t.Helper()
	got := make(map[uint64]int)
	for _, name := range names {
		ep := r.fab.Endpoint(name)
		for m := ep.TryRecv(); m != nil; m = ep.TryRecv() {
			resp, err := DecodeResponse(m.Payload)
			if err != nil {
				t.Fatalf("reply on %s: %v", name, err)
			}
			got[resp.ID]++
		}
	}
	return got
}

// TestBurstRaisesOneNotification: k frames land a microsecond apart — faster
// than the 1.2 us a request costs it — on a dispatcher that is alone on its
// core. The first notifies; the rest arrive while it is draining and must
// raise nothing. (Unmasked, every frame notified.)
func TestBurstRaisesOneNotification(t *testing.T) {
	r := newRig(t, 3, 1, Config{})
	const k = 8
	r.burst(k, time.Microsecond)
	r.drive(t, func() bool { return r.srv.stats.Replied == k })

	if got := r.replies(t, "c0"); len(got) != k {
		t.Fatalf("%d of %d requests answered: %v", len(got), k, got)
	}
	u := r.srv.UPID()
	if sent := u.NotifySent.Load(); sent != 1 {
		t.Fatalf("%d notification interrupts for a burst of %d, want 1", sent, k)
	}
	if r.srv.rx.ActiveChecks == 0 || r.srv.rx.BlockedWaits != 0 {
		t.Fatalf("dispatcher alone on its core made %d active checks and %d blocking waits; it must only actively check",
			r.srv.rx.ActiveChecks, r.srv.rx.BlockedWaits)
	}
}

// TestWakeMasksBurst: the dispatcher shares its core with a compute task and
// is blocked; k frames land back to back inside its wake transition (kernel
// interrupt + ttwu + context switch). The first takes the kernel path and pushes the
// resume-time handler frame; the kernel masks on the task's behalf, so the
// rest cost nothing. (Unmasked, each took a kernel interrupt and pushed a
// frame.)
func TestWakeMasksBurst(t *testing.T) {
	r := newRig(t, 3, 1, Config{})
	r.hog()
	const k = 4
	r.burst(k, netsim.TxCost)
	r.drive(t, func() bool { return r.srv.stats.Replied == k })

	if got := r.replies(t, "c0"); len(got) != k {
		t.Fatalf("%d of %d requests answered: %v", len(got), k, got)
	}
	if n := r.srv.rx.BlockedWaits; n == 0 {
		t.Fatal("dispatcher never blocked: the compute task is not contending for its core")
	}
	if kd, hr := r.srv.rx.KernelDeliveries, r.srv.rx.HandlerRuns; kd != 1 || hr != 1 {
		t.Fatalf("%d kernel deliveries and %d handler frames for %d frames inside one wake, want 1 and 1", kd, hr, k)
	}
}

// TestNoLostWakeupSweep pins the race interrupt mitigation opens: a frame
// that lands between the dispatcher's last empty poll and its wait must
// still wake it. Frame A starts a handle(); frame B follows at every 50 ns
// offset across A's handle window, the unmask→wait edge and the wait entry
// behind it. Every request must be answered exactly once — and the port's
// own assertion panics if it ever waits masked or with a frame queued.
//
// Three dispatcher situations: alone on its core (actively checks), sharing
// it with a compute task (blocks), and shedding onto a full reply link (the
// dispatcher itself sleeps in reply()'s retry loop with notifications
// masked, and B lands during that sleep).
func TestNoLostWakeupSweep(t *testing.T) {
	const (
		step   = 50 * time.Nanosecond
		window = 12 * time.Microsecond
		period = 200 * time.Microsecond
		points = int(window / step)
	)
	for _, mode := range []string{"active", "blocking", "shed-sleep"} {
		t.Run(mode, func(t *testing.T) {
			cfg, replyA, perA := Config{}, exactLink, 1
			if mode == "shed-sleep" {
				// Admission on with an empty tenant table sheds every request
				// on the dispatcher; A is two frames, and a one-slot reply
				// link that takes microseconds to serialize a reply makes
				// the second shed overflow.
				cfg, perA = Config{Admission: true}, 2
				replyA = netsim.Config{Latency: 5 * time.Microsecond, BytesPerSec: 5e6, QueueDepth: 1}
			}
			r := newRig(t, 4, 1, cfg)
			if mode == "blocking" {
				r.hog()
			}
			r.fab.Connect("a", "svc", exactLink)
			r.fab.Connect("b", "svc", exactLink)
			r.fab.Connect("svc", "a", replyA)
			r.fab.Connect("svc", "b", exactLink)
			base := func(i int) time.Duration { return time.Duration(i+1) * period }
			r.sender(2, "a", points, base, func(i int) [][]byte {
				var frames [][]byte
				for j := 0; j < perA; j++ {
					frames = append(frames, probe(uint64(4*i+j)))
				}
				return frames
			})
			r.sender(3, "b", points,
				func(i int) time.Duration { return base(i) + time.Duration(i)*step },
				func(i int) [][]byte { return [][]byte{probe(uint64(4*i + 3))} })
			want := uint64(points * (perA + 1))
			r.drive(t, func() bool { return r.srv.stats.Replied == want })

			got := r.replies(t, "a", "b")
			if uint64(len(got)) != want {
				t.Fatalf("%d of %d requests answered", len(got), want)
			}
			for id, n := range got {
				if n != 1 {
					t.Fatalf("request %d answered %d times", id, n)
				}
			}
			switch blocked, active := r.srv.rx.BlockedWaits, r.srv.rx.ActiveChecks; {
			case mode == "blocking" && blocked < uint64(points):
				t.Fatalf("%d blocking waits over %d pairs: the compute task is not contending", blocked, points)
			case mode != "blocking" && active < uint64(points):
				t.Fatalf("%d active checks over %d pairs", active, points)
			}
			if mode == "shed-sleep" && r.srv.ReplyRetries < uint64(points)/2 {
				t.Fatalf("%d reply retries over %d pairs: the dispatcher is not sleeping on its reply link",
					r.srv.ReplyRetries, points)
			}
		})
	}
}
