// Package stackmodel implements the storage stacks Aeolia is evaluated
// against (§2, §9): the POSIX synchronous path, io_uring in its default
// (interrupt), poll, and active-checking-optimized (iou_opt) setups, and an
// SPDK-style polling userspace driver. Each is a calibrated execution-path
// model over the shared NVMe device and the simulated kernel: real queue
// pairs, real interrupts, real scheduler interaction — with per-layer
// software costs taken from the paper's breakdowns (Figures 2-4).
package stackmodel

import (
	"errors"
	"fmt"
	"time"

	"aeolia/internal/aeokern"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/timing"
)

// ErrNoThread is returned when a task performs I/O before Prepare.
var ErrNoThread = errors.New("stackmodel: task not prepared (no queue pair)")

// CompletionKind is how a stack learns of I/O completion.
type CompletionKind int

// Completion kinds.
const (
	// CompletionPoll busy-polls the completion queue from the issuing
	// thread.
	CompletionPoll CompletionKind = iota
	// CompletionIntr uses a (kernel) interrupt.
	CompletionIntr
)

// Profile parameterizes a stack model.
type Profile struct {
	Name string
	// SubmitExtra is charged on submission in addition to the userspace
	// driver's SubmitCost: syscall entry, io_uring SQE handling, block
	// layer, NVMe driver.
	SubmitExtra time.Duration
	// CompleteExtra is charged on the completion path in task context
	// (syscall return, copy bookkeeping).
	CompleteExtra time.Duration
	// Completion selects poll vs. interrupt.
	Completion CompletionKind
	// EagerSleep makes the thread sleep immediately after submission
	// (the Figure 4 pathology). Without it the stack applies the active
	// checking policy: sleep only when another task is runnable.
	EagerSleep bool
	// ISRCost is the kernel interrupt-context cost (interrupt mechanism
	// + bottom half).
	ISRCost time.Duration
}

// The evaluated baseline profiles.
var (
	// POSIX is the synchronous read/write path (pread/pwrite with
	// O_DIRECT): one full syscall per I/O, interrupt completion, eager
	// sleep.
	POSIX = Profile{
		Name:          "posix",
		SubmitExtra:   timing.POSIXSyscall,
		CompleteExtra: 0,
		Completion:    CompletionIntr,
		EagerSleep:    true,
		ISRCost:       timing.KernelInterrupt + timing.KernelBottomHalf,
	}
	// IOUDfl is io_uring's default setup: interrupts + the kernel's
	// eager-sleep scheduling policy (Figure 2's iou_dfl, 8.2µs).
	IOUDfl = Profile{
		Name:        "iou_dfl",
		SubmitExtra: timing.KernelSubmit,
		Completion:  CompletionIntr,
		EagerSleep:  true,
		ISRCost:     timing.KernelInterrupt + timing.KernelBottomHalf,
	}
	// IOUPoll is io_uring with IORING_SETUP_IOPOLL (Figure 2's iou_poll,
	// 5.4µs).
	IOUPoll = Profile{
		Name:        "iou_poll",
		SubmitExtra: timing.KernelSubmit,
		Completion:  CompletionPoll,
	}
	// IOUOpt is io_uring with the paper's active checking policy
	// (Figure 2's iou_opt, 6.3µs).
	IOUOpt = Profile{
		Name:        "iou_opt",
		SubmitExtra: timing.KernelSubmit,
		Completion:  CompletionIntr,
		EagerSleep:  false,
		ISRCost:     timing.KernelInterrupt + timing.KernelBottomHalf,
	}
	// SPDK is the polling userspace driver (Figure 2, 4.2µs).
	SPDK = Profile{
		Name:       "spdk",
		Completion: CompletionPoll,
	}
)

// Request is an in-flight I/O of a stack model.
type Request struct {
	op     nvme.Opcode
	done   *sim.Completion
	cqe    *sim.Completion
	status nvme.Status
	start  time.Duration
}

// Err returns the completion status as an error.
func (r *Request) Err() error { return r.status.Err() }

// Stack is an instantiated stack model over a machine's device and kernel.
type Stack struct {
	prof Profile
	kern *aeokern.Kernel
	dev  *nvme.Device

	threads map[*sim.Task]*thread

	// Reads/Writes count completed operations.
	Reads, Writes uint64
}

type thread struct {
	st      *Stack
	task    *sim.Task
	qp      *nvme.QueuePair
	vector  int
	pending map[uint16]*Request

	sleeps uint64
	spins  uint64
}

// New instantiates a stack model.
func New(kern *aeokern.Kernel, prof Profile) *Stack {
	return &Stack{
		prof:    prof,
		kern:    kern,
		dev:     kern.Device(),
		threads: make(map[*sim.Task]*thread),
	}
}

// Prepare allocates the calling task's queue pair (all modeled stacks use
// per-thread/per-core NVMe queues, as modern Linux and SPDK do).
func (s *Stack) Prepare(env *sim.Env, depth int) error {
	t := env.Task()
	if _, ok := s.threads[t]; ok {
		return nil
	}
	qp, err := s.dev.CreateQueuePair(depth)
	if err != nil {
		return err
	}
	th := &thread{st: s, task: t, qp: qp, pending: make(map[uint16]*Request)}
	if s.prof.Completion == CompletionIntr {
		vec, err := s.kern.AllocVector(th.isr)
		if err != nil {
			return err
		}
		th.vector = vec
		qp.Vector = vec
		core := t.Affinity()
		qp.OnCompletion = func(q *nvme.QueuePair) { core.RaiseIRQ(vec) }
	}
	s.threads[t] = th
	return nil
}

// Read performs a synchronous read of cnt blocks at lba.
func (s *Stack) Read(env *sim.Env, lba uint64, cnt uint32, buf []byte) error {
	req, err := s.Submit(env, nvme.OpRead, lba, cnt, buf)
	if err != nil {
		return err
	}
	return s.Wait(env, req)
}

// Write performs a synchronous write.
func (s *Stack) Write(env *sim.Env, lba uint64, cnt uint32, buf []byte) error {
	req, err := s.Submit(env, nvme.OpWrite, lba, cnt, buf)
	if err != nil {
		return err
	}
	return s.Wait(env, req)
}

// Submit issues an asynchronous request, charging the stack's submission
// path.
func (s *Stack) Submit(env *sim.Env, op nvme.Opcode, lba uint64, cnt uint32, buf []byte) (*Request, error) {
	th, ok := s.threads[env.Task()]
	if !ok {
		return nil, ErrNoThread
	}
	env.Exec(timing.SubmitCost + s.prof.SubmitExtra)
	req := &Request{op: op, done: sim.NewCompletion(), start: env.Now()}
	cqe, err := th.qp.Submit(nvme.SubmissionEntry{Opcode: op, SLBA: lba, NLB: cnt, Data: buf})
	if err != nil {
		return nil, fmt.Errorf("stackmodel %s: %w", s.prof.Name, err)
	}
	req.cqe = cqe
	th.pending[th.qp.LastCID()] = req
	return req, nil
}

// Wait completes a request per the stack's completion kind and scheduling
// policy.
func (s *Stack) Wait(env *sim.Env, req *Request) error {
	th, ok := s.threads[env.Task()]
	if !ok {
		return ErrNoThread
	}
	for !req.done.Done() {
		switch {
		case s.prof.Completion == CompletionPoll:
			th.spins++
			env.SpinWait(req.cqe)
			th.drain(env.Now())
		case s.prof.EagerSleep || s.othersRunnable(env):
			// Sleep; the ISR wakes us (Figure 4 path when the
			// core then idles).
			th.sleeps++
			env.BlockOn(req.done)
		default:
			// Active checking: stay on the CPU until the ISR
			// handles the completion.
			th.spins++
			env.SpinWait(req.done)
		}
	}
	env.Exec(timing.CompleteCost + s.prof.CompleteExtra)
	return req.Err()
}

func (s *Stack) othersRunnable(env *sim.Env) bool {
	c := env.Task().Core()
	if c == nil {
		return false
	}
	return s.kern.Sched().NrRunnable(c) > 0
}

// drain consumes CQEs in task context (polling stacks).
func (th *thread) drain(now time.Duration) {
	for _, ce := range th.qp.Poll(0) {
		req := th.pending[ce.CID]
		if req == nil {
			continue
		}
		delete(th.pending, ce.CID)
		req.status = ce.Status
		req.done.FireAt(now)
		if req.op == nvme.OpWrite {
			th.st.Writes++
		} else {
			th.st.Reads++
		}
	}
}

// isr is the kernel interrupt handler for this thread's vector.
func (th *thread) isr(ctx *sim.IRQCtx, vec int) {
	ctx.Charge(th.st.prof.ISRCost)
	t := th.task
	if t.State() == sim.TaskRunning {
		// Active-checking thread is on the CPU: the bottom half
		// completes the request; the thread resumes at ISR end.
		th.drain(ctx.Now())
		return
	}
	// Sleeping (or preempted) thread: complete in the bottom half, then
	// wake it, paying ttwu. Capture the state first — draining fires the
	// completion whose wake hook transitions the task to runnable.
	wasBlocked := t.State() == sim.TaskBlocked
	th.drain(ctx.Now())
	if wasBlocked {
		ctx.Charge(timing.WakeupTTWU)
		ctx.Engine().Wake(t)
	}
}
