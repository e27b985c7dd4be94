// Package rxport is Aeolia's user-interrupt receive side, written once.
//
// Receiver is the delivery protocol of §4.2 and §6.1 for one task: the
// registration (vector, UPID, class map, handler), the in-schedule handler
// that drains the source and runs user_try_yield, the out-of-schedule kernel
// path that takes the PIR and pushes a handler frame or drains inline, and
// the active-check-or-block wait. It does not know what it drains. It has
// two clients: aeodriver's Thread, whose drain reaps an NVMe completion
// queue, and Port, whose drain hands a netsim inbox to the task. aeosvc's
// dispatcher and every cluster OSD receive through a Port.
//
// The port, not the receiver, applies NAPI's rule with the one hardware bit
// the UPID has for it, SN (suppress notification):
//
//   - Mask while polling. Recv sets SN when it hands the caller a frame and
//     clears it only immediately before it waits. A frame that lands while
//     the task is draining its inbox posts its PIR bit and raises nothing:
//     the task will find it with its next TryRecv.
//   - Mask on wake. When the receiver's kernel path reports that it
//     deferred to a handler frame (PIR consumed, frame pushed, task woken or
//     found runnable), the port sets SN on the task's behalf. The task is now
//     certain to run its drain loop, so frames that arrive during the ttwu +
//     idle-exit + context-switch window cost nothing.
//
// The lost-wake-up window is closed by order: unmask, then re-check the inbox
// and the caller's own wake condition, then wait. A frame that arrived before
// the unmask is in the inbox and the re-check sees it; one that arrives after
// notifies. Nothing can run between the re-check and the wait (a task body is
// atomic between parks), and the wait panics if it is ever entered masked or
// with a non-empty inbox.
package rxport

import (
	"fmt"
	"time"

	"aeolia/internal/aeokern"
	"aeolia/internal/mpk"
	"aeolia/internal/netsim"
	"aeolia/internal/sim"
	"aeolia/internal/uintr"
)

// Config is what differs between the port's callers.
type Config struct {
	// Classes partitions the UPID's vectors into delivery classes (nil:
	// class-less).
	Classes *uintr.ClassMap
	// Vector picks the user vector a delivered frame posts.
	Vector func(*netsim.Msg) uint8
	// Woken is the caller's own wake condition (shutdown, a due tick): Recv
	// returns nil instead of waiting while it holds. Whoever makes it true
	// must also call the endpoint's SignalArrival.
	Woken func() bool
	// ActiveCheck makes the wait spin while the task is alone on its core
	// and block only when another task wants it (the driver's §6.1 policy,
	// aeosvc's dispatcher). Unset, the wait always blocks: a spinning idle
	// OSD would count every idle node core as busy.
	ActiveCheck bool
}

// Port is one task's receive port: a Receiver whose drain hands the inbox to
// the task. The zero value is unbound; Bind it from the receiving task
// before the first Recv.
type Port struct {
	Receiver
	ep  *netsim.Endpoint
	cfg Config
}

// Bind installs the calling task's user-interrupt registration and routes
// the endpoint's deliveries into its UPID — the network analogue of remapping
// an NVMe MSI-X vector (§4.2). A task has exactly one uintr registration, so
// the bound task must not also create a driver queue pair.
func (p *Port) Bind(env *sim.Env, kern *aeokern.Kernel, gate *mpk.Gate, ep *netsim.Endpoint, cfg Config) error {
	p.ep, p.cfg = ep, cfg
	p.Attach(kern, env.Task(), cfg.ActiveCheck, p.signal)
	if _, err := p.Register(gate, cfg.Classes, p.kernelDeliver); err != nil {
		return err
	}
	upid, eng := p.UPID(), kern.Engine()
	ep.SetOnDeliver(func(m *netsim.Msg) {
		uintr.PostAndNotify(eng, upid, cfg.Vector(m))
	})
	return nil
}

// Recv returns the next frame, waiting for one if the inbox is empty, or nil
// once the inbox is empty and the caller's wake condition holds.
func (p *Port) Recv(env *sim.Env) *netsim.Msg {
	for {
		if m := p.ep.TryRecv(); m != nil {
			p.upid.SN = true
			return m
		}
		// Unmask first, re-check second: see the package comment.
		p.upid.SN = false
		c := p.ep.Arrival()
		if p.ep.Pending() > 0 {
			continue
		}
		if p.cfg.Woken() {
			return nil
		}
		p.wait(env, c)
	}
}

// wait parks the task until the arrival completion fires. Entering it masked
// or with frames queued is the lost wake-up this port exists to rule out.
func (p *Port) wait(env *sim.Env, c *sim.Completion) {
	if p.upid.SN || p.ep.Pending() > 0 {
		panic(fmt.Sprintf("rxport: %s waits with SN=%v and %d frames queued",
			p.ep.Name(), p.upid.SN, p.ep.Pending()))
	}
	p.Await(env, c)
}

// signal is the port's drain: it hands the inbox to the task (§4.2's "check
// the hardware queue" step applied to the network).
func (p *Port) signal(time.Duration) { p.ep.SignalArrival() }

// kernelDeliver is the port's out-of-schedule path: the receiver's, plus mask
// on wake. Once the kernel has deferred to a handler frame, the task is
// certain to run its drain loop, so SN stays set until that loop unmasks.
func (p *Port) kernelDeliver(ctx *sim.IRQCtx, _ int) {
	if p.Interrupt(ctx) {
		p.upid.SN = true
	}
}
