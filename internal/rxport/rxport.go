// Package rxport is the user-interrupt network receive port: one task's
// netsim endpoint bound to a UPID, the in-schedule handler, the
// out-of-schedule kernel path, and the wait. aeosvc's dispatcher and every
// cluster OSD receive through it.
//
// The port applies NAPI's rule with the one hardware bit the UPID has for
// it, SN (suppress notification):
//
//   - Mask while polling. Recv sets SN when it hands the caller a frame and
//     clears it only immediately before it waits. A frame that lands while
//     the task is draining its inbox posts its PIR bit and raises nothing:
//     the task will find it with its next TryRecv.
//   - Mask on wake. The kernel path, having consumed the PIR, pushed the
//     resume-time handler frame and woken the task (or found it runnable),
//     sets SN on the task's behalf. The task is now certain to run its drain
//     loop, so frames that arrive during the ttwu + idle-exit + context-switch
//     window cost nothing.
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
	"sync/atomic"
	"time"

	"aeolia/internal/aeokern"
	"aeolia/internal/mpk"
	"aeolia/internal/netsim"
	"aeolia/internal/sched"
	"aeolia/internal/sim"
	"aeolia/internal/timing"
	"aeolia/internal/trace"
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

// Port is one task's receive port. The zero value is unbound; Bind it from
// the receiving task before the first Recv.
type Port struct {
	kern *aeokern.Kernel
	ep   *netsim.Endpoint
	cfg  Config
	task *sim.Task
	upid *uintr.UPID
	// handlerFrame is p.runHandlerFrame, bound once: the resume hook every
	// kernel-path delivery pushes.
	handlerFrame func() time.Duration

	// Stats. Atomic: the IRQ-context paths bump them and the race tier
	// hammers them from real goroutines.
	HandlerRuns, KernelDeliveries atomic.Uint64
	ActiveChecks, BlockedWaits    atomic.Uint64
}

// Bind installs the calling task's user-interrupt registration and routes
// the endpoint's deliveries into its UPID — the network analogue of remapping
// an NVMe MSI-X vector (§4.2). A task has exactly one uintr registration, so
// the bound task must not also create a driver queue pair.
func (p *Port) Bind(env *sim.Env, kern *aeokern.Kernel, gate *mpk.Gate, ep *netsim.Endpoint, cfg Config) error {
	vec, err := kern.AllocVector(p.kernelDeliver)
	if err != nil {
		return err
	}
	t := env.Task()
	upid, _ := kern.MapUPID(t.Affinity(), vec, gate)
	upid.Classes = cfg.Classes
	p.kern, p.ep, p.cfg, p.task, p.upid = kern, ep, cfg, t, upid
	p.handlerFrame = p.runHandlerFrame
	kern.RegisterThreadUintr(t, vec, upid, p.userHandler)
	eng := kern.Engine()
	ep.SetOnDeliver(func(m *netsim.Msg) {
		uintr.PostAndNotify(eng, upid, cfg.Vector(m))
	})
	return nil
}

// UPID returns the port's posting descriptor (nil before Bind).
func (p *Port) UPID() *uintr.UPID { return p.upid }

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
	if p.cfg.ActiveCheck && !p.othersRunnable() {
		p.ActiveChecks.Add(1)
		env.SpinWait(c)
		return
	}
	p.BlockedWaits.Add(1)
	env.BlockOn(c)
}

// othersRunnable consults the sched_ext map: does another task want the
// port's core?
func (p *Port) othersRunnable() bool {
	c := p.task.Core()
	return c != nil && p.kern.ExtMap().Snapshot(c).NrRunning > 1
}

// runHandler is one handler execution, bracketed in the trace stream: it
// identifies the interrupt source by handing the inbox to the task (§4.2's
// "check the hardware queue" step applied to the network).
func (p *Port) runHandler(core int, aux uint64) {
	p.HandlerRuns.Add(1)
	eng := p.kern.Engine()
	tr := eng.Tracer
	if tr != nil {
		tr.Emit(eng.Now(), trace.HandlerEnter, core, -1, trace.NoCID, 0, aux)
	}
	p.ep.SignalArrival()
	if tr != nil {
		tr.Emit(eng.Now(), trace.HandlerExit, core, -1, trace.NoCID, 0, aux)
	}
}

// userHandler is the in-schedule user-interrupt handler; it evaluates
// user_try_yield before returning (§6.1 decision point).
func (p *Port) userHandler(ctx *sim.IRQCtx, uv uint8) {
	p.runHandler(ctx.Core().ID, uint64(uv))
	if sched.UserTryYield(p.kern.ExtMap().Snapshot(ctx.Core()), ctx.Now()) {
		ctx.Core().SetNeedResched()
	}
}

// runHandlerFrame is the handler frame the kernel path inserts: it runs on
// the task's own CPU time when the task is switched back in.
func (p *Port) runHandlerFrame() time.Duration {
	core := -1
	if c := p.task.Core(); c != nil {
		core = c.ID
	}
	p.runHandler(core, trace.KernelPathAux)
	return timing.HandlerExec
}

// kernelDeliver is the out-of-schedule path: the notification vector missed
// UINV (the task is context-switched out), so it arrives as a kernel
// interrupt. The kernel consumes the PIR, inserts the handler frame to run
// when the task resumes, wakes it, and masks until its drain loop unmasks.
func (p *Port) kernelDeliver(ctx *sim.IRQCtx, vec int) {
	p.KernelDeliveries.Add(1)
	ctx.Charge(timing.KernelInterrupt)
	pir := p.upid.TakePIR()
	if tr := ctx.Engine().Tracer; tr != nil && p.upid.Classes != nil {
		tr.Emit(ctx.Now(), trace.UPIDClear, p.upid.DestCPU, -1, trace.NoCID, 0, pir)
	}
	t := p.task
	if t.State() == sim.TaskRunning {
		p.runHandler(ctx.Core().ID, trace.KernelPathAux)
		return
	}
	t.PushResumeHook(p.handlerFrame)
	switch t.State() {
	case sim.TaskBlocked:
		ctx.Charge(timing.WakeupTTWU)
		ctx.Engine().Wake(t)
	case sim.TaskRunnable:
		if p.kern.Sched().ShouldPreempt(t, ctx.Core()) {
			ctx.Core().SetNeedResched()
		}
	}
	p.upid.SN = true
}
