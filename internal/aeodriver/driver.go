// Package aeodriver implements AeoDriver, the paper's trusted library NVMe
// driver (§4): complete userspace I/O with submissions through directly
// mapped queue pairs and completions through user interrupts; a per-block
// permission table enforcing protected sharing; the Table 4 API surface
// including privileged variants for trusted entities; and the coordinated-
// scheduling decision points of §6 (after I/O submission and on interrupt-
// handler return) driven by the sched_ext state map.
package aeodriver

import (
	"errors"
	"fmt"
	"time"

	"aeolia/internal/aeokern"
	"aeolia/internal/mpk"
	"aeolia/internal/nvme"
	"aeolia/internal/sched"
	"aeolia/internal/sim"
	"aeolia/internal/timing"
	"aeolia/internal/trace"
	"aeolia/internal/uintr"
)

// Errors returned by the driver.
var (
	ErrPerm       = errors.New("aeodriver: block access permission denied")
	ErrPrivileged = errors.New("aeodriver: privileged API rejected for untrusted caller")
	ErrClosed     = errors.New("aeodriver: device not open")
	ErrNoThread   = errors.New("aeodriver: calling task has no queue pair (create_qp first)")
)

// CompletionMode selects how I/O completions reach the driver.
type CompletionMode int

// Completion modes. ModeUserInterrupt is Aeolia's design; ModePoll and
// ModeKernelInterrupt are the Figure 17 ablations (+poll, +k_intr);
// ModeKernelNative is the substrate the kernel-file-system baselines run on.
const (
	ModeUserInterrupt CompletionMode = iota
	ModePoll
	ModeKernelInterrupt
	// ModeKernelNative models a conventional in-kernel consumer of the
	// interrupt (no userspace forwarding): ISR + bottom half + wakeup.
	// The kernel-file-system baselines use it as their I/O substrate.
	ModeKernelNative
)

func (m CompletionMode) String() string {
	switch m {
	case ModeUserInterrupt:
		return "uintr"
	case ModePoll:
		return "poll"
	case ModeKernelInterrupt:
		return "kintr"
	case ModeKernelNative:
		return "knative"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// WaitPolicy selects what a thread does while its I/O is in flight.
type WaitPolicy int

// Wait policies. PolicyCoordinated is Aeolia's active-checking +
// user_try_yield policy; PolicyAlwaysBlock is the +k_yield ablation
// (eagerly yield to the kernel idle task, Figure 17).
const (
	PolicyCoordinated WaitPolicy = iota
	PolicyAlwaysBlock
)

// Retry parameters: defaultMaxRetries applies when Config.MaxRetries is zero;
// retryBackoff is the delay before the first retry and doubles on each
// subsequent one.
const (
	defaultMaxRetries = 3
	retryBackoff      = 10 * time.Microsecond
)

// Config parameterizes a driver instance.
type Config struct {
	Mode       CompletionMode
	Policy     WaitPolicy
	QueueDepth int

	// MaxRetries bounds how many times Wait re-submits a command that
	// completed with a transient NVMe status (nvme.Status.Transient)
	// before surfacing the CommandError. 0 selects the default (3);
	// negative disables retries.
	MaxRetries int
	// RecoverTimeout arms a completion watchdog: if a request's CQE is
	// visible but no notification delivered it within this interval, the
	// driver reaps the queue itself (recovering from a lost interrupt).
	// 0 disables the watchdog (the default: Aeolia's delivery paths make
	// it unnecessary unless notifications are faulted).
	RecoverTimeout time.Duration

	// Coalesce configures CQ interrupt aggregation on every queue pair
	// the driver creates (zero value: no coalescing).
	Coalesce nvme.Coalescing

	// ZeroCopyRing selects the zero-copy ring variant of the datapath:
	// each thread stages commands through a per-core lock-free SPSC
	// producer ring whose slots carry pre-registered buffers, so a
	// submission pays timing.RingPrep per command (no per-command PRP
	// build) and a completion pays timing.RingComplete (lock-free CQ
	// consume, batched head doorbell) instead of the SQEPrep/CompleteCost
	// halves.
	//
	// Verdict (DESIGN.md "Forks and verdicts"): kept as fig_zerocopy's
	// named variant, never the default. Forced on, the poll-mode QD1
	// calibration reads 3.919µs against the paper's ~4.3µs (Fig. 10) and
	// the qdsweep QD32 batching speedup falls from 2.2x to 1.82x; RingPrep
	// also assumes pre-registered buffers, which page-cache pages and user
	// buffers are not. It is the only datapath mechanism flag left here,
	// and it costs one branch in enqueue and one in Wait.
	ZeroCopyRing bool

	// QoS enables priority-class delivery (ModeUserInterrupt only): each
	// thread's user vectors are registered in a UPID ClassMap, and every
	// command carries the thread's current I/O class as its completion
	// priority tag (see nvme.Coalescing.UrgentMax for the per-class
	// aggregation bypass). Off (the default), the legacy class-less
	// behavior is kept.
	QoS bool
	// IOClass is each thread's initial I/O class when QoS is enabled.
	// Note the zero value is uintr.ClassUrgent — QoS configurations
	// should set it explicitly (uintr.ClassNormal for mixed workloads);
	// SetIOClass changes it per thread at runtime.
	IOClass uintr.Class
}

func (c Config) maxRetries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return defaultMaxRetries
	default:
		return c.MaxRetries
	}
}

// Request is an in-flight I/O request handle.
type Request struct {
	op  nvme.Opcode
	lba uint64
	cnt uint32
	buf []byte
	sgl [][]byte
	// done and cqe live in the request, so a command is one allocation; a
	// retry resets them, and attempts is what tells one submission of the
	// request from the next.
	done   sim.Completion // fired when the driver has handled the CQE
	cqe    sim.Completion // fired when the CQE becomes visible (polling)
	status nvme.Status
	cid    uint16
	// attempts counts submissions of this request (1 + retries).
	attempts int
	// SubmittedAt/DoneAt delimit the request's device-visible lifetime.
	SubmittedAt time.Duration
	DoneAt      time.Duration
}

// Err returns the request's completion status as a typed *CommandError
// (nil for success).
func (r *Request) Err() error {
	if r.status == nvme.StatusSuccess {
		return nil
	}
	return &CommandError{Op: r.op, LBA: r.lba, Blocks: r.cnt, Status: r.status, Attempts: r.attempts}
}

// OnComplete registers fn to run when the driver has handled the request's
// CQE (fire-and-forget completion callback; runs immediately if the request
// is already done). The callback executes in engine context — it must not
// park (no Exec/Block/mutex), only inspect the request and flip state.
// Unlike Wait, OnComplete performs no retries: check r.Err() in fn.
func (r *Request) OnComplete(fn func(*Request)) {
	r.done.OnFire(func() { fn(r) })
}

// Thread is the per-thread driver state: one dedicated queue pair (Table 4's
// create_qp), a distinct hardware vector (§6.1: per-thread vectors make
// out-of-schedule interrupts miss UINV), and the thread's UPID, into which
// the queue pair posts user vector 0.
type Thread struct {
	drv    *Driver
	task   *sim.Task
	qp     *nvme.QueuePair
	vector int
	upid   *uintr.UPID
	// ring is the lock-free SPSC staging ring of the zero-copy variant (nil
	// unless Config.ZeroCopyRing): the submitting task is the only producer
	// and the in-gate drain the only consumer, so command staging takes no
	// lock.
	ring *nvme.SPSC[nvme.SubmissionEntry]
	// class is the thread's current I/O class (QoS configurations only):
	// submissions carry it as their completion priority tag and the UPID
	// class map keeps the thread's user vector in it.
	class uintr.Class

	// pending maps the queue pair's CIDs to their in-flight requests.
	pending map[uint16]*Request

	// entries and cids are enqueue's scratch for the SQ entries it builds
	// and the CIDs the queue pair assigns them; only the owning task
	// submits, so they are reused across submissions without a lock.
	entries []nvme.SubmissionEntry
	cids    []uint16

	// handlerFrame is th.runHandlerFrame, bound once: the resume hook every
	// kernel-path delivery pushes.
	handlerFrame func() time.Duration

	// Stats.
	Submitted        uint64
	HandlerRuns      uint64
	OutOfSchedDeliv  uint64
	YieldsFromIRQ    uint64
	BlockedWaits     uint64
	ActiveCheckWaits uint64
	// Retries counts transient-error re-submissions; NotifyRecovered
	// counts completions the watchdog reaped after a lost notification.
	Retries         uint64
	NotifyRecovered uint64
	// RingStaged counts commands that traveled through the zero-copy
	// staging ring.
	RingStaged uint64
}

// QueuePairs exposes the thread's queue pair (tests and diagnostics).
func (th *Thread) QueuePairs() []*nvme.QueuePair { return []*nvme.QueuePair{th.qp} }

// PendingRequests reports the number of in-flight requests (tests).
func (th *Thread) PendingRequests() int { return len(th.pending) }

// notifyInFlight reports whether a notification for this thread's UPID has
// been raised but not yet recognized (ON set). The completions it covers
// are on their way — not lost — so the watchdog must stand down. A
// fault-dropped notification deliberately leaves ON clear, keeping real
// recovery intact.
func (th *Thread) notifyInFlight() bool {
	return th.upid != nil && th.upid.ON
}

// Driver is an AeoDriver instance: one per process.
type Driver struct {
	kern *aeokern.Kernel
	proc *aeokern.Process
	cfg  Config

	gate       *mpk.Gate
	permRegion *mpk.Region
	perm       *PermTable

	ext *sched.ExtMap

	threads map[*sim.Task]*Thread
	open    bool

	dmaBytes int64
}

// Open initializes an AeoDriver instance for the process (Table 4 ①). The
// gate is the process's trusted-entity call gate produced by the privileged
// launcher; the permission table is initialized from the kernel-maintained
// partition.
func Open(kern *aeokern.Kernel, proc *aeokern.Process, gate *mpk.Gate, cfg Config) (*Driver, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 128
	}
	d := &Driver{
		kern:       kern,
		proc:       proc,
		cfg:        cfg,
		gate:       gate,
		permRegion: kern.Sys.NewRegion(fmt.Sprintf("permtable-%s", proc.Name), gate.Key()),
		perm:       NewPermTable(kern.Device().NumBlocks()),
		ext:        kern.ExtMap(),
		threads:    make(map[*sim.Task]*Thread),
		open:       true,
	}
	// Initialize block permissions from the kernel's coarse partition.
	part := proc.Partition
	p := PermRead
	if part.Writable {
		p = PermRW
	}
	d.perm.SetRange(part.Start, part.Blocks, p)
	return d, nil
}

// Close releases all driver resources (Table 4 ②).
func (d *Driver) Close() {
	for _, th := range d.threads {
		d.release(th)
	}
	d.open = false
}

// release returns a thread's queue pair, interrupt vector and user-interrupt
// registration to the kernel and forgets the thread.
func (d *Driver) release(th *Thread) {
	d.kern.FreeQueuePair(d.proc, th.qp)
	if d.cfg.Mode != ModePoll {
		d.kern.FreeVector(th.vector)
	}
	d.kern.UnregisterThreadUintr(th.task)
	delete(d.threads, th.task)
}

// Gate returns the process's trusted-entity gate (shared with the AeoFS
// trust layer, which lives in the same protection domain).
func (d *Driver) Gate() *mpk.Gate { return d.gate }

// Process returns the owning process.
func (d *Driver) Process() *aeokern.Process { return d.proc }

// Kernel returns the backing kernel.
func (d *Driver) Kernel() *aeokern.Kernel { return d.kern }

// Mode returns the driver's completion mode.
func (d *Driver) Mode() CompletionMode { return d.cfg.Mode }

// Config returns the driver's configuration.
func (d *Driver) Config() Config { return d.cfg }

// CreateQP allocates the calling task's queue pair and wires its completion
// path according to the driver's mode (Table 4 ③).
func (d *Driver) CreateQP(env *sim.Env) (*Thread, error) {
	if !d.open {
		return nil, ErrClosed
	}
	t := env.Task()
	if th, ok := d.threads[t]; ok {
		return th, nil
	}
	qp, err := d.kern.AllocQueuePair(d.proc, d.cfg.QueueDepth)
	if err != nil {
		return nil, err
	}
	qp.SetCoalescing(d.cfg.Coalesce)
	th := &Thread{
		drv:     d,
		task:    t,
		qp:      qp,
		pending: make(map[uint16]*Request),
	}
	th.handlerFrame = th.runHandlerFrame
	if d.cfg.ZeroCopyRing {
		th.ring = nvme.NewSPSC[nvme.SubmissionEntry](d.cfg.QueueDepth)
	}
	// ModePoll wires no interrupt: the thread discovers CQEs by polling.
	// Every other mode gets one vector; nothing after its allocation can
	// fail, so the queue pair is all there is to unwind.
	var deliver aeokern.KernelDeliver
	switch d.cfg.Mode {
	case ModeUserInterrupt:
		deliver = th.kernelDeliver
	case ModeKernelInterrupt:
		deliver = th.kernelIntrDeliver
	case ModeKernelNative:
		deliver = th.kernelNativeDeliver
	}
	if deliver != nil {
		if th.vector, err = d.kern.AllocVector(deliver); err != nil {
			d.kern.FreeQueuePair(d.proc, qp)
			return nil, err
		}
		if d.cfg.Mode == ModeUserInterrupt {
			// The queue pair posts user vector 0 into the thread's UPID.
			th.upid, _ = d.kern.MapUPID(t.Affinity(), th.vector, d.gate)
			if d.cfg.QoS {
				th.class = d.cfg.IOClass
				th.upid.Classes = uintr.NewClassMap(uintr.ClassNormal)
				th.upid.Classes.Set(0, th.class)
			}
			d.kern.RegisterThreadUintr(t, th.vector, th.upid, th.userHandler)
		}
		d.kern.ProgramMSIX(qp, th.upid, 0, t.Affinity(), th.vector)
	}
	d.threads[t] = th
	return th, nil
}

// DeleteQP releases the calling task's queue pair (Table 4 ④). Requests
// still in flight (fire-and-forget submissions nobody has waited for) are
// waited out first, lowest CID first so that the order is the same on every
// run: once the vector is freed nothing would ever fire their completions.
func (d *Driver) DeleteQP(env *sim.Env) error {
	th, err := d.thread(env.Task())
	if err != nil {
		return err
	}
	for len(th.pending) > 0 {
		var next *Request
		for _, req := range th.pending {
			if next == nil || req.cid < next.cid {
				next = req
			}
		}
		d.waitDone(env, th, next)
	}
	d.release(th)
	return nil
}

// AllocDMABuf allocates a DMA-able data buffer (Table 4 ⑤).
func (d *Driver) AllocDMABuf(size int) []byte {
	d.dmaBytes += int64(size)
	return make([]byte, size)
}

// FreeDMABuf returns a DMA buffer (Table 4 ⑥).
func (d *Driver) FreeDMABuf(buf []byte) {
	d.dmaBytes -= int64(cap(buf))
}

// DMABytes reports currently allocated DMA memory.
func (d *Driver) DMABytes() int64 { return d.dmaBytes }

// thread returns the per-task driver state.
func (d *Driver) thread(t *sim.Task) (*Thread, error) {
	th, ok := d.threads[t]
	if !ok {
		return nil, ErrNoThread
	}
	return th, nil
}

// ReadBlk reads cnt blocks at lba into buf with permission enforcement
// (Table 4 ⑦).
func (d *Driver) ReadBlk(env *sim.Env, lba uint64, cnt uint32, buf []byte) error {
	return d.syncIO(env, nvme.OpRead, lba, cnt, buf, false)
}

// WriteBlk writes cnt blocks at lba from buf with permission enforcement
// (Table 4 ⑧).
func (d *Driver) WriteBlk(env *sim.Env, lba uint64, cnt uint32, buf []byte) error {
	return d.syncIO(env, nvme.OpWrite, lba, cnt, buf, false)
}

// ReadPriv reads blocks bypassing the permission table (Table 4 ⑨); only
// trusted entities may call it.
func (d *Driver) ReadPriv(env *sim.Env, lba uint64, cnt uint32, buf []byte) error {
	if !d.proc.Thread.InTrustedGate() {
		return ErrPrivileged
	}
	return d.syncIO(env, nvme.OpRead, lba, cnt, buf, true)
}

// WritePriv writes blocks bypassing the permission table (Table 4 ⑩); only
// trusted entities may call it.
func (d *Driver) WritePriv(env *sim.Env, lba uint64, cnt uint32, buf []byte) error {
	if !d.proc.Thread.InTrustedGate() {
		return ErrPrivileged
	}
	return d.syncIO(env, nvme.OpWrite, lba, cnt, buf, true)
}

// Flush issues a device flush (persistence barrier).
func (d *Driver) Flush(env *sim.Env) error {
	return d.syncIO(env, nvme.OpFlush, 0, 0, nil, true)
}

// GetPerm returns a block's permission (Table 4 ⑪); trusted entities only.
func (d *Driver) GetPerm(env *sim.Env, blk uint64) (Perm, error) {
	if !d.proc.Thread.InTrustedGate() {
		return PermNone, ErrPrivileged
	}
	if err := d.kern.Sys.Check(d.proc.Thread, d.permRegion, false); err != nil {
		return PermNone, err
	}
	return d.perm.Get(blk), nil
}

// PermTrace, when set, observes every permission change to WatchBlk
// (debugging).
var PermTrace func(op string, blk uint64, p Perm)

// WatchBlk is the block PermTrace observes.
var WatchBlk uint64

func tracePerm(op string, blk uint64, p Perm) {
	if PermTrace != nil && blk == WatchBlk {
		PermTrace(op, blk, p)
	}
}

// SetPerm changes a block's permission (Table 4 ⑫); trusted entities only.
func (d *Driver) SetPerm(env *sim.Env, blk uint64, p Perm) error {
	if !d.proc.Thread.InTrustedGate() {
		return ErrPrivileged
	}
	if err := d.kern.Sys.Check(d.proc.Thread, d.permRegion, true); err != nil {
		return err
	}
	tracePerm("set", blk, p)
	d.perm.Set(blk, p)
	return nil
}

// GrantPerm widens a block's permission (OR semantics), so concurrent
// grants for different access modes never downgrade each other; trusted
// entities only.
func (d *Driver) GrantPerm(env *sim.Env, blk uint64, p Perm) error {
	if !d.proc.Thread.InTrustedGate() {
		return ErrPrivileged
	}
	if err := d.kern.Sys.Check(d.proc.Thread, d.permRegion, true); err != nil {
		return err
	}
	tracePerm("grant", blk, d.perm.Get(blk)|p)
	d.perm.Set(blk, d.perm.Get(blk)|p)
	return nil
}

// SetPermRange changes a block range's permission; trusted entities only.
func (d *Driver) SetPermRange(env *sim.Env, blk, n uint64, p Perm) error {
	if !d.proc.Thread.InTrustedGate() {
		return ErrPrivileged
	}
	if err := d.kern.Sys.Check(d.proc.Thread, d.permRegion, true); err != nil {
		return err
	}
	if PermTrace != nil && WatchBlk >= blk && WatchBlk < blk+n {
		PermTrace("setrange", WatchBlk, p)
	}
	d.perm.SetRange(blk, n, p)
	return nil
}

// syncIO is the synchronous I/O path: submit inside the trusted gate, then
// wait per the driver's completion mode and policy.
func (d *Driver) syncIO(env *sim.Env, op nvme.Opcode, lba uint64, cnt uint32, buf []byte, priv bool) error {
	req, err := d.Submit(env, op, lba, cnt, buf, priv)
	if err != nil {
		return err
	}
	return d.Wait(env, req)
}

// IOVec is one segment of a vectored batch request. Buf is the contiguous
// transfer buffer; SG, when non-empty, replaces it with a scatter-gather
// list of block-aligned segments (gather-DMA: pages submitted in place,
// zero staging copies).
type IOVec struct {
	LBA uint64
	Cnt uint32
	Buf []byte
	SG  [][]byte
}

// Submit issues an asynchronous I/O request: a batch of one.
func (d *Driver) Submit(env *sim.Env, op nvme.Opcode, lba uint64, cnt uint32, buf []byte, priv bool) (*Request, error) {
	th, err := d.submitter(env, priv)
	if err != nil {
		return nil, err
	}
	iov := [1]IOVec{{LBA: lba, Cnt: cnt, Buf: buf}}
	var reqs [1]*Request
	if err := th.enqueue(env, op, iov[:], priv, reqs[:]); err != nil {
		return nil, err
	}
	return reqs[0], nil
}

// SubmitBatch issues a whole vector of same-opcode commands through a single
// trusted-gate entry, paying the per-command SQE-prep cost once per segment
// but the gate toll and the doorbell MMIO cost only once per batch.
// Admission is all-or-nothing: if any segment fails its permission check or
// the SQ lacks capacity for the batch, nothing is enqueued.
func (d *Driver) SubmitBatch(env *sim.Env, op nvme.Opcode, iov []IOVec, priv bool) ([]*Request, error) {
	th, err := d.submitter(env, priv)
	if err != nil || len(iov) == 0 {
		return nil, err
	}
	reqs := make([]*Request, len(iov))
	if err := th.enqueue(env, op, iov, priv, reqs); err != nil {
		return nil, err
	}
	return reqs, nil
}

// submitter resolves the calling task's thread for a submission, refusing
// closed drivers and privileged requests from outside the trusted gate.
func (d *Driver) submitter(env *sim.Env, priv bool) (*Thread, error) {
	if !d.open {
		return nil, ErrClosed
	}
	if priv && !d.proc.Thread.InTrustedGate() {
		return nil, ErrPrivileged
	}
	return d.thread(env.Task())
}

// enqueue is the one first-submission path; a single command is a batch of
// one. Entering the trusted driver costs the gate toll once; inside the gate
// the whole vector passes the permission check and the SQ capacity check
// before anything reaches the queue, then pays SQE prep per command and one
// doorbell write, and one nvme batch hands it to the device. reqs (len(iov),
// caller-owned) receives the request handles in segment order.
func (th *Thread) enqueue(env *sim.Env, op nvme.Opcode, iov []IOVec, priv bool, reqs []*Request) (err error) {
	d := th.drv
	d.gate.Call(env, d.proc.Thread, func() {
		if !priv && op != nvme.OpFlush {
			for _, v := range iov {
				if !d.perm.Allows(v.LBA, uint64(v.Cnt), op == nvme.OpWrite) {
					err = fmt.Errorf("%w: %v [%d,+%d) (batch of %d rejected)", ErrPerm, op, v.LBA, v.Cnt, len(iov))
					return
				}
			}
		}
		if th.qp.Inflight()+len(iov) > d.cfg.QueueDepth-1 {
			err = fmt.Errorf("%w (%d inflight + %d batch > depth %d)",
				nvme.ErrSQFull, th.qp.Inflight(), len(iov), d.cfg.QueueDepth)
			return
		}
		entries := th.entries[:0]
		for i, v := range iov {
			reqs[i] = &Request{op: op, lba: v.LBA, cnt: v.Cnt, buf: v.Buf, sgl: v.SG}
			entries = append(entries, th.sqe(reqs[i]))
		}
		perCmd := timing.SQEPrep
		if th.ring != nil {
			// Ring variant: commands are staged in pre-registered slots,
			// so there is no per-command PRP build.
			perCmd = timing.RingPrep
			entries = th.stageRing(entries)
		}
		env.Exec(time.Duration(len(iov))*perCmd + timing.DoorbellWrite)
		cids, serr := th.qp.SubmitBatch(th.cids[:0], entries)
		th.entries, th.cids = entries, cids
		if serr != nil {
			err = serr
			return
		}
		now := env.Now()
		for i, req := range reqs {
			req.SubmittedAt = now
			th.track(req, cids[i])
		}
	})
	return err
}

// sqe builds the submission entry for req, tagged with the thread's current
// I/O class and carrying the request's CQE handle.
func (th *Thread) sqe(req *Request) nvme.SubmissionEntry {
	return nvme.SubmissionEntry{Opcode: req.op, SLBA: req.lba, NLB: req.cnt, Data: req.buf, SGL: req.sgl,
		Prio: th.prioTag(), Done: &req.cqe}
}

// track records one accepted submission of req: the queue pair's CID, the
// attempt count, the pending entry and the watchdog.
func (th *Thread) track(req *Request, cid uint16) {
	req.cid = cid
	req.attempts++
	th.pending[req.cid] = req
	th.Submitted++
	th.armWatchdog(req)
}

// WaitAll waits for every request in order and returns the first error.
func (d *Driver) WaitAll(env *sim.Env, reqs []*Request) error {
	var first error
	for _, req := range reqs {
		if err := d.Wait(env, req); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// syncVBatch submits iov in admission-sized chunks (SubmitBatch is
// all-or-nothing, so a vector longer than the SQ can hold must be split)
// and waits for each chunk before submitting the next.
func (d *Driver) syncVBatch(env *sim.Env, op nvme.Opcode, iov []IOVec, priv bool) error {
	max := d.cfg.QueueDepth / 2
	if max < 1 {
		max = 1
	}
	for len(iov) > 0 {
		n := min(len(iov), max)
		reqs, err := d.SubmitBatch(env, op, iov[:n], priv)
		if err != nil {
			return err
		}
		if err := d.WaitAll(env, reqs); err != nil {
			return err
		}
		iov = iov[n:]
	}
	return nil
}

// ReadVBatch reads every segment of iov with one batched submission and
// waits for all of them (vectored synchronous read).
func (d *Driver) ReadVBatch(env *sim.Env, iov []IOVec) error {
	return d.syncVBatch(env, nvme.OpRead, iov, false)
}

// WriteVBatch writes every segment of iov with one batched submission and
// waits for all of them (vectored synchronous write).
func (d *Driver) WriteVBatch(env *sim.Env, iov []IOVec) error {
	return d.syncVBatch(env, nvme.OpWrite, iov, false)
}

// ReadVPriv and WriteVPriv are the privileged vectored variants (trusted
// entities only), used by AeoFS for multi-extent fills and flushes.
func (d *Driver) ReadVPriv(env *sim.Env, iov []IOVec) error {
	if !d.proc.Thread.InTrustedGate() {
		return ErrPrivileged
	}
	return d.syncVBatch(env, nvme.OpRead, iov, true)
}

func (d *Driver) WriteVPriv(env *sim.Env, iov []IOVec) error {
	if !d.proc.Thread.InTrustedGate() {
		return ErrPrivileged
	}
	return d.syncVBatch(env, nvme.OpWrite, iov, true)
}

// prioTag encodes the thread's I/O class as the nvme completion priority
// tag (class+1; 0 = untagged for class-less configurations).
func (th *Thread) prioTag() uint8 {
	if !th.drv.cfg.QoS {
		return 0
	}
	return uint8(th.class) + 1
}

// SetIOClass retags the calling thread's I/O class: subsequent submissions
// carry it as their completion priority tag, and the thread's UPID vectors
// move into it so deliveries are ordered (and preempt) accordingly. Service
// workers call this per admitted request with the tenant's class. No-op
// unless the driver was configured with QoS.
func (d *Driver) SetIOClass(env *sim.Env, class uintr.Class) error {
	th, err := d.thread(env.Task())
	if err != nil {
		return err
	}
	if !d.cfg.QoS || th.class == class {
		return nil
	}
	th.class = class
	if th.upid != nil && th.upid.Classes != nil {
		th.upid.Classes.Set(0, class)
	}
	return nil
}

// IOClass returns the calling thread's current I/O class.
func (d *Driver) IOClass(env *sim.Env) (uintr.Class, error) {
	th, err := d.thread(env.Task())
	if err != nil {
		return 0, err
	}
	return th.class, nil
}

// stageRing pushes a batch through the thread's lock-free SPSC staging ring
// and returns the drained, submission-ordered entries (in place: a slot is
// only overwritten after its entry was pushed). The caller already prechecked
// SQ capacity and the ring holds at least QueueDepth slots, so the push/pop
// interleave below always terminates: when the ring fills mid-batch, the
// in-gate consumer drains a slot before the producer continues (the same
// backpressure a device-polled ring applies).
func (th *Thread) stageRing(entries []nvme.SubmissionEntry) []nvme.SubmissionEntry {
	out := entries[:0]
	for next := 0; next < len(entries) || th.ring.Len() > 0; {
		if next < len(entries) && th.ring.Push(entries[next]) {
			next++
			th.RingStaged++
			continue
		}
		if e, ok := th.ring.Pop(); ok {
			out = append(out, e)
		}
	}
	return out
}

// resubmit re-issues a request that completed with a transient error. The
// original submission already passed the gate and permission checks, so the
// retry goes straight to the queue pair, like a storage driver requeueing a
// failed command.
func (th *Thread) resubmit(env *sim.Env, req *Request) error {
	req.cqe = sim.Completion{}
	th.entries = append(th.entries[:0], th.sqe(req))
	cids, err := th.qp.SubmitBatch(th.cids[:0], th.entries)
	th.cids = cids
	if err != nil {
		return err
	}
	req.done = sim.Completion{}
	req.status = nvme.StatusSuccess
	th.track(req, cids[0])
	th.Retries++
	return nil
}

// armWatchdog schedules a lost-notification check for req if the driver has
// a recovery timeout configured.
func (th *Thread) armWatchdog(req *Request) {
	d := th.drv.cfg.RecoverTimeout
	if d <= 0 {
		return
	}
	eng := th.drv.kern.Engine()
	attempt := req.attempts
	var check func()
	check = func() {
		// A fired completion, or a later attempt (a retry), means the
		// normal delivery path already handled this submission.
		if req.done.Done() || req.attempts != attempt {
			return
		}
		if th.qp.HasCompletions() && !th.qp.NotifyPending() && !th.notifyInFlight() {
			// A CQE is sitting in the queue with no aggregation window
			// open and nothing consumed it: the notification was
			// lost. Reap it ourselves. (When NotifyPending, the CQE is
			// intentionally parked behind interrupt coalescing — the
			// armed aggregation timer will deliver it, so reaping
			// here would be a false recovery. When notifyInFlight,
			// an urgent-class completion already bypassed the
			// aggregation and its notification is outstanding — the
			// UPID's ON bit guarantees recognition will drain it, so
			// reaping here would double-count the completion as both
			// delivered and recovered.)
			th.NotifyRecovered++
			th.drainCQ(eng.Now())
		}
		if !req.done.Done() && req.attempts == attempt {
			eng.Schedule(d, check)
		}
	}
	eng.Schedule(d, check)
}

// Wait blocks (per policy) until req completes, then charges the
// completion-side software cost and returns the request's status. Transient
// NVMe failures (nvme.Status.Transient) are retried with exponential
// backoff, up to the configured retry budget, before surfacing a typed
// *CommandError.
func (d *Driver) Wait(env *sim.Env, req *Request) error {
	th, err := d.thread(env.Task())
	if err != nil {
		return err
	}
	backoff := retryBackoff
	retriesLeft := d.cfg.maxRetries()
	for {
		d.waitDone(env, th, req)
		if !req.status.Transient() || retriesLeft == 0 {
			break
		}
		// Transient device error: back off and requeue the command.
		retriesLeft--
		env.Sleep(backoff)
		backoff *= 2
		env.Exec(timing.SubmitCost)
		if err := th.resubmit(env, req); err != nil {
			// SQ full: surface the original failure.
			break
		}
	}
	if th.ring != nil {
		// Ring variant: phase-bit CQ consume with a batched head
		// doorbell, cheaper than the classic completion half.
		env.Exec(timing.RingComplete)
	} else {
		env.Exec(timing.CompleteCost)
	}
	return req.Err()
}

// waitDone runs the mode/policy wait loop until req's completion fires.
func (d *Driver) waitDone(env *sim.Env, th *Thread, req *Request) {
	for !req.done.Done() {
		switch {
		case d.cfg.Mode == ModePoll:
			// Busy-poll the completion queue.
			env.SpinWait(&req.cqe)
			th.drainCQ(env.Now())
		case d.cfg.Policy == PolicyAlwaysBlock || d.othersRunnable(env):
			// Scheduling decision point after issuing the I/O
			// (§3.3): yield the core while the I/O is in flight.
			// The out-of-schedule user interrupt takes the kernel
			// path, wakes us, and inserts the handler frame.
			th.BlockedWaits++
			env.BlockOn(&req.done)
		default:
			// Active checking (§2.1): no other runnable task, so
			// stay on the CPU; the in-schedule user interrupt
			// resumes us directly.
			th.ActiveCheckWaits++
			env.SpinWait(&req.done)
		}
	}
}

// SetNotifyHook installs (or, with nil, removes) a notification
// fault-injection hook on the calling task's UPID. Only meaningful in
// ModeUserInterrupt, where completions are delivered via UPID notifications.
func (d *Driver) SetNotifyHook(env *sim.Env, h uintr.NotifyHook) error {
	th, err := d.thread(env.Task())
	if err != nil {
		return err
	}
	if th.upid == nil {
		return fmt.Errorf("aeodriver: no UPID to hook (mode %v)", d.cfg.Mode)
	}
	th.upid.Hook = h
	return nil
}

// UPID exposes the thread's user-interrupt posting descriptor (nil outside
// ModeUserInterrupt); tests use it to inspect notification stats.
func (th *Thread) UPID() *uintr.UPID { return th.upid }

// othersRunnable consults the sched_ext map: is any other task runnable on
// this core?
func (d *Driver) othersRunnable(env *sim.Env) bool {
	c := env.Task().Core()
	if c == nil {
		return false
	}
	return d.ext.Snapshot(c).NrRunning > 1
}

// drainCQ consumes all visible CQEs on the thread's queue pair and fires
// their requests.
func (th *Thread) drainCQ(now time.Duration) int {
	n := 0
	// The scratch is on this call's stack, not the thread's: firing a request
	// can run its task, which may drain the same queue again before the loop
	// moves on.
	var scratch [32]nvme.CompletionEntry
	for _, ce := range th.qp.PollAppend(scratch[:0], 0) {
		req := th.pending[ce.CID]
		if req == nil {
			continue
		}
		delete(th.pending, ce.CID)
		req.status = ce.Status
		req.DoneAt = now
		req.done.FireAt(now)
		n++
	}
	return n
}

// emitHandler emits a HandlerEnter/HandlerExit bracket on the thread's
// engine; a no-op when tracing is off. The analyzer uses these brackets to
// distinguish delivery-path CQ consumption from recovery reaps.
func (th *Thread) emitHandler(typ trace.Type, core int, aux uint64) {
	eng := th.drv.kern.Engine()
	if tr := eng.Tracer; tr != nil {
		tr.Emit(eng.Now(), typ, core, -1, trace.NoCID, 0, aux)
	}
}

// userHandler is the userspace user-interrupt handler (§4.2): it identifies
// the interrupt source by checking the hardware completion queue, handles
// completions, rewrites the UPID PIR (implicit: recognition cleared it),
// and evaluates user_try_yield before returning (§6.1 decision point).
func (th *Thread) userHandler(ctx *sim.IRQCtx, uv uint8) {
	th.HandlerRuns++
	th.emitHandler(trace.HandlerEnter, ctx.Core().ID, uint64(uv))
	defer th.emitHandler(trace.HandlerExit, ctx.Core().ID, uint64(uv))
	th.drainCQ(ctx.Now())
	// Figure 8: yield only when the policy demands it.
	snap := th.drv.ext.Snapshot(ctx.Core())
	if sched.UserTryYield(snap, ctx.Now()) {
		th.YieldsFromIRQ++
		ctx.Core().SetNeedResched()
	}
}

// kernelDeliver is the out-of-schedule user-interrupt path (§6.1): the
// vector missed UINV, so it arrives as a regular kernel interrupt. The
// kernel wakes the target thread (setting the reschedule flag via wakeup
// preemption) and rewrites its saved context to insert a stack frame that
// runs the userspace handler before the thread resumes.
func (th *Thread) kernelDeliver(ctx *sim.IRQCtx, vec int) {
	th.OutOfSchedDeliv++
	ctx.Charge(timing.KernelInterrupt)
	// The kernel observes the posted bits and consumes the PIR on the
	// thread's behalf (clearing ON so future posts notify again).
	pir := th.upid.TakePIR()
	if tr := ctx.Engine().Tracer; tr != nil && th.upid.Classes != nil {
		tr.Emit(ctx.Now(), trace.UPIDClear, th.upid.DestCPU, -1, trace.NoCID, 0, pir)
	}
	th.deliverViaKernel(ctx)
}

// deliverViaKernel finishes a kernel-path delivery: if the target thread is
// actively checking on a CPU, handle the completion in interrupt context;
// otherwise insert the userspace handler frame and wake/resched the thread.
// A thread that has exited gets no frame — it would never run — so the
// kernel reaps its queue in interrupt context too: what the thread left in
// flight (fire-and-forget read-ahead) still completes, and whoever waits on
// it is woken.
func (th *Thread) deliverViaKernel(ctx *sim.IRQCtx) {
	t := th.task
	if s := t.State(); s == sim.TaskRunning || s == sim.TaskDone {
		th.HandlerRuns++
		th.emitHandler(trace.HandlerEnter, ctx.Core().ID, trace.KernelPathAux)
		th.drainCQ(ctx.Now())
		th.emitHandler(trace.HandlerExit, ctx.Core().ID, trace.KernelPathAux)
		return
	}
	t.PushResumeHook(th.handlerFrame)
	switch t.State() {
	case sim.TaskBlocked:
		ctx.Charge(timing.WakeupTTWU)
		ctx.Engine().Wake(t)
	case sim.TaskRunnable:
		if th.drv.kern.Sched().ShouldPreempt(t, ctx.Core()) {
			ctx.Core().SetNeedResched()
		}
	}
}

// runHandlerFrame is the userspace handler frame the kernel path inserts: it
// runs on the thread's own CPU time when the thread is switched back in.
func (th *Thread) runHandlerFrame() time.Duration {
	th.HandlerRuns++
	core := -1
	if c := th.task.Core(); c != nil {
		core = c.ID
	}
	th.emitHandler(trace.HandlerEnter, core, trace.KernelPathAux)
	th.drainCQ(th.drv.kern.Engine().Now())
	th.emitHandler(trace.HandlerExit, core, trace.KernelPathAux)
	return timing.HandlerExec
}

// kernelIntrDeliver is the ModeKernelInterrupt (+k_intr) completion path:
// a conventional kernel ISR plus eventfd-style forwarding to userspace.
func (th *Thread) kernelIntrDeliver(ctx *sim.IRQCtx, vec int) {
	ctx.Charge(timing.KernelInterrupt + timing.KernelBottomHalf + timing.EventfdForward)
	th.deliverViaKernel(ctx)
}

// kernelNativeDeliver is the in-kernel completion path (ModeKernelNative):
// interrupt + bottom half, then waking the in-kernel waiter.
func (th *Thread) kernelNativeDeliver(ctx *sim.IRQCtx, vec int) {
	ctx.Charge(timing.KernelInterrupt + timing.KernelBottomHalf)
	th.deliverViaKernel(ctx)
}

// Perm exposes the permission table for verification in tests and attacks.
// Mutation must go through SetPerm; this accessor is read-only by
// convention (the region check guards real accesses).
func (d *Driver) PermSnapshot(blk uint64) Perm { return d.perm.Get(blk) }
