package rxport

import (
	"sync/atomic"
	"time"

	"aeolia/internal/aeokern"
	"aeolia/internal/mpk"
	"aeolia/internal/sched"
	"aeolia/internal/sim"
	"aeolia/internal/timing"
	"aeolia/internal/trace"
	"aeolia/internal/uintr"
)

// Receiver is the paper's user-interrupt delivery protocol (§4.2, §6.1) for
// one task, whatever the interrupt signals. A completion posts into the
// task's UPID. In schedule, the user handler drains the source and runs
// user_try_yield. Out of schedule, the kernel takes the PIR, pushes a handler
// frame and wakes the task. Between interrupts the task waits on a
// completion, spinning or blocking by the active-check rule.
//
// The caller passes only its drain: what handling the source means (an NVMe
// CQ for aeodriver, a netsim inbox for Port). Embed it and Attach it from
// the receiving task.
type Receiver struct {
	kern        *aeokern.Kernel
	task        *sim.Task
	upid        *uintr.UPID
	activeCheck bool
	// drain consumes what the source has pending, as of now.
	drain func(now time.Duration)
	// handlerFrame is r.runHandlerFrame, bound once: the resume hook every
	// deferred delivery pushes.
	handlerFrame func() time.Duration

	// Counters. Atomic: the IRQ-context paths bump them and the race tier
	// hammers them from real goroutines.
	HandlerRuns, KernelDeliveries, Yields atomic.Uint64
	ActiveChecks, BlockedWaits            atomic.Uint64
}

// Attach binds the receiver to task t. With activeCheck, Await spins while
// the task is alone on its core and blocks only when another task wants it
// (§6.1's policy); without it, Await always blocks.
func (r *Receiver) Attach(kern *aeokern.Kernel, t *sim.Task, activeCheck bool, drain func(now time.Duration)) {
	r.kern, r.task, r.activeCheck, r.drain = kern, t, activeCheck, drain
	r.handlerFrame = r.runHandlerFrame
}

// Register gives the attached task its user-interrupt registration: a
// notification vector whose kernel-path handler is kernelPath (which calls
// Interrupt), a UPID mapped through gate with the class map classes (nil:
// class-less), and the in-schedule handler. A task has exactly one
// registration. It returns the vector.
func (r *Receiver) Register(gate *mpk.Gate, classes *uintr.ClassMap, kernelPath aeokern.KernelDeliver) (int, error) {
	vec, err := r.kern.AllocVector(kernelPath)
	if err != nil {
		return 0, err
	}
	r.upid, _ = r.kern.MapUPID(r.task.Affinity(), vec, gate)
	r.upid.Classes = classes
	r.kern.RegisterThreadUintr(r.task, vec, r.upid, r.userHandler)
	return vec, nil
}

// UPID returns the task's posting descriptor (nil before Register).
func (r *Receiver) UPID() *uintr.UPID { return r.upid }

// Await parks the task until c fires: an active-checking receiver alone on
// its core spins (the in-schedule interrupt resumes it directly); otherwise
// the task blocks and the kernel path wakes it.
func (r *Receiver) Await(env *sim.Env, c *sim.Completion) {
	if r.activeCheck && !r.othersRunnable() {
		r.ActiveChecks.Add(1)
		env.SpinWait(c)
		return
	}
	r.BlockedWaits.Add(1)
	env.BlockOn(c)
}

// othersRunnable consults the sched_ext map: does another task want the
// receiver's core?
func (r *Receiver) othersRunnable() bool {
	c := r.task.Core()
	return c != nil && r.kern.ExtMap().Snapshot(c).NrRunning > 1
}

// handle is one handler execution at now, bracketed in the trace stream: it
// identifies the interrupt source by draining it (§4.2's "check the hardware
// queue" step).
func (r *Receiver) handle(core int, now time.Duration, aux uint64) {
	r.HandlerRuns.Add(1)
	tr := r.kern.Engine().Tracer
	if tr != nil {
		tr.Emit(now, trace.HandlerEnter, core, -1, trace.NoCID, 0, aux)
	}
	r.drain(now)
	if tr != nil {
		tr.Emit(now, trace.HandlerExit, core, -1, trace.NoCID, 0, aux)
	}
}

// userHandler is the in-schedule user-interrupt handler; it evaluates
// user_try_yield before returning (§6.1 decision point, Figure 8).
func (r *Receiver) userHandler(ctx *sim.IRQCtx, uv uint8) {
	r.handle(ctx.Core().ID, ctx.Now(), uint64(uv))
	if sched.UserTryYield(r.kern.ExtMap().Snapshot(ctx.Core()), ctx.Now()) {
		r.Yields.Add(1)
		ctx.Core().SetNeedResched()
	}
}

// runHandlerFrame is the handler frame a deferred delivery inserts: it runs
// on the task's own CPU time when the task is switched back in.
func (r *Receiver) runHandlerFrame() time.Duration {
	core := -1
	if c := r.task.Core(); c != nil {
		core = c.ID
	}
	r.handle(core, r.task.Affinity().Now(), trace.KernelPathAux)
	return timing.HandlerExec
}

// Interrupt is the out-of-schedule path: the notification vector missed
// UINV (the task is context-switched out), so it arrives as a kernel
// interrupt. The kernel consumes the PIR on the task's behalf (clearing ON
// so future posts notify again), then delivers. It reports whether the
// delivery was deferred to a handler frame.
func (r *Receiver) Interrupt(ctx *sim.IRQCtx) bool {
	r.KernelDeliveries.Add(1)
	ctx.Charge(timing.KernelInterrupt)
	pir := r.upid.TakePIR()
	if tr := ctx.Engine().Tracer; tr != nil && r.upid.Classes != nil {
		tr.Emit(ctx.Now(), trace.UPIDClear, r.upid.DestCPU, -1, trace.NoCID, 0, pir)
	}
	return r.Deliver(ctx)
}

// Deliver finishes a kernel-path delivery and reports whether it deferred.
// A running task (actively checking on a CPU) is handled in interrupt
// context. So is a finished one: a frame pushed on it would never run, and
// what it left in flight must still be drained for whoever waits on it.
// Otherwise the kernel inserts the handler frame and wakes the task (or
// checks whether it should preempt the core).
func (r *Receiver) Deliver(ctx *sim.IRQCtx) bool {
	t := r.task
	if s := t.State(); s == sim.TaskRunning || s == sim.TaskDone {
		r.handle(ctx.Core().ID, ctx.Now(), trace.KernelPathAux)
		return false
	}
	t.PushResumeHook(r.handlerFrame)
	switch t.State() {
	case sim.TaskBlocked:
		ctx.Charge(timing.WakeupTTWU)
		ctx.Engine().Wake(t)
	case sim.TaskRunnable:
		if r.kern.Sched().ShouldPreempt(t, ctx.Core()) {
			ctx.Core().SetNeedResched()
		}
	}
	return true
}
