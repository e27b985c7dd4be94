package rxport_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeokern"
	"aeolia/internal/alloctest"
	"aeolia/internal/machine"
	"aeolia/internal/netsim"
	"aeolia/internal/nvme"
	"aeolia/internal/rxport"
	"aeolia/internal/sim"
	"aeolia/internal/uintr"
)

// The aeosvc and cluster suites drive the port through its two callers
// (bursts, the lost-wake-up sweep, wake-time masking, crash/restart). These
// tests cover what only the port itself can show: the state of the mask at
// each step of Recv, the wait policy, and the assertion.

const (
	loVec = 3
	hiVec = 5
)

// portRig is a two-core machine with a receiver task on core 0 whose port
// listens on "rx", and a sender endpoint "tx" driven from core 1.
type portRig struct {
	m    *machine.Machine
	fab  *netsim.Fabric
	port rxport.Port

	stop   bool
	frames []string // payloads in the order Recv handed them out
	masked []bool   // SN as each frame was handed out
}

// newPortRig starts the receiver: Bind, then Recv until Woken, spending work
// on each frame. body, when non-nil, replaces that loop.
func newPortRig(t *testing.T, activeCheck bool, work time.Duration, body func(*portRig, *sim.Env)) *portRig {
	t.Helper()
	m := machine.New(2, nvme.Config{BlockSize: 4096, NumBlocks: 1 << 12})
	proc, err := m.Launch("rx", aeokern.Partition{Blocks: 1 << 10, Writable: true}, aeodriver.Config{})
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	r := &portRig{m: m, fab: netsim.New(m.Eng, 1)}
	r.fab.Connect("tx", "rx", netsim.Config{Latency: 2 * time.Microsecond})
	cfg := rxport.Config{
		Classes: uintr.NewClassMap(uintr.ClassNormal).Set(hiVec, uintr.ClassUrgent),
		Vector: func(m *netsim.Msg) uint8 {
			if strings.HasPrefix(string(m.Payload), "hi") {
				return hiVec
			}
			return loVec
		},
		Woken:       func() bool { return r.stop },
		ActiveCheck: activeCheck,
	}
	m.Eng.Spawn("rx", m.Eng.Core(0), func(env *sim.Env) {
		if err := r.port.Bind(env, m.Kern, proc.Gate, r.fab.Endpoint("rx"), cfg); err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		if body != nil {
			body(r, env)
			return
		}
		for f := r.port.Recv(env); f != nil; f = r.port.Recv(env) {
			r.frames = append(r.frames, string(f.Payload))
			r.masked = append(r.masked, r.port.UPID().SN)
			env.Exec(work)
		}
	})
	t.Cleanup(m.Eng.Shutdown)
	return r
}

// send transmits the payloads from "tx", one every gap, starting at.
func (r *portRig) send(at, gap time.Duration, payloads ...string) {
	ep := r.fab.Endpoint("tx")
	r.m.Eng.Spawn("tx", r.m.Eng.Core(1), func(env *sim.Env) {
		env.Sleep(at - env.Now())
		for _, p := range payloads {
			if err := ep.Send(env, "rx", []byte(p)); err != nil {
				panic(fmt.Sprintf("send: %v", err))
			}
			env.Exec(gap - netsim.TxCost)
		}
	})
}

func (r *portRig) halt() {
	r.m.Eng.Schedule(0, func() {
		r.stop = true
		r.fab.Endpoint("rx").SignalArrival()
	})
	r.m.Eng.Run(r.m.Eng.Now() + 100*time.Microsecond)
}

// TestMaskFollowsTheDrain walks one burst through Recv: unmasked while the
// port waits, masked from the first frame handed out until the inbox runs
// dry, unmasked again in the next wait; and a Woken caller gets nil with the
// port unmasked.
func TestMaskFollowsTheDrain(t *testing.T) {
	r := newPortRig(t, true, 2*time.Microsecond, nil)
	eng, u := r.m.Eng, r.port.UPID
	eng.Run(40 * time.Microsecond)
	if u() == nil || u().SN {
		t.Fatal("port waiting on an empty inbox must be bound and unmasked")
	}
	r.send(50*time.Microsecond, time.Microsecond, "lo-1", "hi-2", "lo-3", "lo-4")
	eng.Run(200 * time.Microsecond)

	if got := strings.Join(r.frames, " "); got != "lo-1 hi-2 lo-3 lo-4" {
		t.Fatalf("frames handed out %q: the inbox is FIFO whatever vector a frame posts", got)
	}
	for i, m := range r.masked {
		if !m {
			t.Fatalf("frame %d handed out unmasked", i)
		}
	}
	if u().SN {
		t.Fatal("port back in its wait is still masked")
	}
	if sent, masked := u().NotifySent.Load(), u().NotifyMasked.Load(); sent != 1 || masked != 3 {
		t.Fatalf("burst of 4: %d notifications sent, %d masked, want 1 and 3", sent, masked)
	}
	if r.port.HandlerRuns != 1 || r.port.KernelDeliveries != 0 {
		t.Fatalf("in-schedule burst ran %d handlers and %d kernel deliveries, want 1 and 0",
			r.port.HandlerRuns, r.port.KernelDeliveries)
	}
	// The masked posts left their bits in the PIR; they ride the next
	// recognition.
	if u().PIR != 1<<hiVec|1<<loVec {
		t.Fatalf("PIR %#x after the drain, want the masked hi and lo bits", u().PIR)
	}
	r.halt()
	if eng.LiveTasks() != 0 {
		t.Fatalf("%d tasks still live: a Woken caller must get nil from Recv", eng.LiveTasks())
	}
	if u().SN {
		t.Fatal("Recv returned nil to a Woken caller with the port masked")
	}
}

// TestWaitPolicy: an ActiveCheck port alone on its core spins (the core is
// never idle) and blocks once another task wants the core; a port without it
// blocks even when alone (the core idles).
func TestWaitPolicy(t *testing.T) {
	t.Run("active alone", func(t *testing.T) {
		r := newPortRig(t, true, 0, nil)
		r.m.Eng.Run(100 * time.Microsecond)
		if r.m.Eng.Core(0).Idle() {
			t.Fatal("actively checking port left its core idle")
		}
		if r.port.ActiveChecks != 1 || r.port.BlockedWaits != 0 {
			t.Fatalf("%d active checks, %d blocking waits, want 1 and 0",
				r.port.ActiveChecks, r.port.BlockedWaits)
		}
	})
	t.Run("active contended", func(t *testing.T) {
		r := newPortRig(t, true, 0, nil)
		r.m.Eng.Spawn("hog", r.m.Eng.Core(0), func(env *sim.Env) {
			for !r.stop {
				env.Exec(10 * time.Microsecond)
			}
		})
		r.send(50*time.Microsecond, time.Microsecond, "lo")
		r.m.Eng.Run(10 * time.Millisecond)
		if len(r.frames) != 1 {
			t.Fatalf("blocked port received %d frames, want 1", len(r.frames))
		}
		if r.port.BlockedWaits == 0 || r.port.KernelDeliveries != 1 {
			t.Fatalf("%d blocking waits, %d kernel deliveries: a contended port must block and wake by the kernel path",
				r.port.BlockedWaits, r.port.KernelDeliveries)
		}
	})
	t.Run("blocking alone", func(t *testing.T) {
		r := newPortRig(t, false, 0, nil)
		r.m.Eng.Run(100 * time.Microsecond)
		if !r.m.Eng.Core(0).Idle() {
			t.Fatal("blocking port alone on its core keeps the core busy")
		}
		if r.port.ActiveChecks != 0 || r.port.BlockedWaits != 1 {
			t.Fatalf("%d active checks, %d blocking waits, want 0 and 1",
				r.port.ActiveChecks, r.port.BlockedWaits)
		}
	})
}

// TestWaitAssertion: entering the wait masked, or with a frame queued, is a
// bug the port refuses to sleep on.
func TestWaitAssertion(t *testing.T) {
	var masked, queued any
	r := newPortRig(t, false, 0, func(r *portRig, env *sim.Env) {
		try := func() (rec any) {
			defer func() { rec = recover() }()
			r.port.WaitOnArrival(env)
			return nil
		}
		r.port.UPID().SN = true
		masked = try()
		env.Sleep(20 * time.Microsecond) // the frame below lands masked; nobody drains it
		r.port.UPID().SN = false
		queued = try()
	})
	r.send(5*time.Microsecond, time.Microsecond, "lo")
	r.m.Eng.Run(100 * time.Microsecond)
	if masked != "rxport: rx waits with SN=true and 0 frames queued" {
		t.Errorf("masked wait: recovered %v, want the port's assertion", masked)
	}
	if queued != "rxport: rx waits with SN=false and 1 frames queued" {
		t.Errorf("queued wait: recovered %v, want the port's assertion", queued)
	}
}

// TestAllocsMaskedReceive: a frame that lands while the task drains its inbox
// costs the port nothing — no interrupt, and a Recv plus the work on the
// frame that allocate nothing, in the port or in the engine under it. (The
// frames are sent up front: what a frame costs the fabric is netsim's.)
func TestAllocsMaskedReceive(t *testing.T) {
	const frames, work = 600, 5 * time.Microsecond
	got := 0
	r := newPortRig(t, true, 0, func(r *portRig, env *sim.Env) {
		for f := r.port.Recv(env); f != nil; f = r.port.Recv(env) {
			got++
			env.Exec(work)
		}
	})
	payloads := make([]string, frames)
	for i := range payloads {
		payloads[i] = "lo"
	}
	r.send(50*time.Microsecond, netsim.TxCost, payloads...)
	for r.fab.Endpoint("rx").Delivered < frames || got == 0 {
		r.m.Eng.Run(r.m.Eng.Now() + 10*time.Microsecond)
	}
	if left := frames - got; left < 400 {
		t.Fatalf("only %d frames left in the inbox: the receiver is not the slow side", left)
	}
	sent := r.port.UPID().NotifySent.Load()
	alloctest.AtMost(t, 0, 10, func() { r.m.Eng.Run(r.m.Eng.Now() + 10*work) })
	if r.port.UPID().NotifySent.Load() != sent || !r.port.UPID().SN {
		t.Fatalf("%d notifications during the drain, SN=%v: the drain was not masked",
			r.port.UPID().NotifySent.Load()-sent, r.port.UPID().SN)
	}
}

// TestAllocsKernelPathDelivery: the out-of-schedule path — kernel interrupt,
// handler frame pushed, task woken and switched in, frame run, arrival
// signalled, Recv back in its wait — allocates nothing either. The posts come
// straight from an event, as the endpoint's delivery hook would make them,
// with no frame behind them: Recv finds the inbox empty and waits again.
func TestAllocsKernelPathDelivery(t *testing.T) {
	r := newPortRig(t, false, 0, nil)
	eng := r.m.Eng
	var post func()
	post = func() {
		uintr.PostAndNotify(eng, r.port.UPID(), loVec)
		eng.Schedule(20*time.Microsecond, post)
	}
	eng.Run(40 * time.Microsecond) // bound, and blocked in its first wait
	post()
	alloctest.AtMost(t, 0, 10, func() { eng.Run(eng.Now() + 200*time.Microsecond) })
	// (The last delivery's frame may still be waiting for its task's switch-in.)
	if k, h := r.port.KernelDeliveries, r.port.HandlerRuns; k < 200 || h+1 < k {
		t.Fatalf("%d kernel deliveries, %d handler runs: the gate measured something else", k, h)
	}
}
