// Package aeokern models AeoKern, the kernel module of the Aeolia stack
// (§3.3): it configures hardware (interrupt vectors, MSI-X remapping onto
// the user-interrupt path, per-core UINTR MSRs across context switches),
// allocates resources (NVMe queue pairs, DMA-able memory, protection keys),
// maintains coarse access permissions (per-process disk partitions), hosts
// the trusted-entity signature registry, and intercepts memory-management
// syscalls to enforce W^X.
package aeokern

import (
	"errors"
	"fmt"
	"math/bits"

	"aeolia/internal/mpk"
	"aeolia/internal/nvme"
	"aeolia/internal/sched"
	"aeolia/internal/sim"
	"aeolia/internal/timing"
	"aeolia/internal/trace"
	"aeolia/internal/uintr"
)

// Errors returned by kernel services.
var (
	ErrQPLimit      = errors.New("aeokern: process queue-pair limit reached")
	ErrNoVectors    = errors.New("aeokern: out of interrupt vectors")
	ErrBadPartition = errors.New("aeokern: partition out of device range")
)

// firstDeviceVector is where device/user interrupt vectors start (above the
// legacy/exception range, like Linux's external vector space).
const firstDeviceVector = 0x30

// ProcessQPLimit caps the queue pairs one process holds at once.
const ProcessQPLimit = 64

// Partition is the coarse, kernel-maintained permission a process holds on
// the disk: a contiguous LBA range plus writability.
type Partition struct {
	Start    uint64
	Blocks   uint64
	Writable bool
}

// Process is a kernel-visible process: an MPK thread state (one per process
// is enough for the permission model), its disk partition, and resource
// accounting.
type Process struct {
	ID        int
	Name      string
	Thread    *mpk.Thread
	Partition Partition

	kern *Kernel
	qps  int
}

// KernelDeliver is the kernel-interrupt-path callback a driver registers
// for a vector: it runs when the vector arrives while its thread is out of
// schedule (or for plain kernel-interrupt stacks).
type KernelDeliver func(ctx *sim.IRQCtx, vector int)

// threadUintr is the kernel's per-thread user-interrupt bookkeeping: the
// state it must install on the core whenever the thread is switched in.
type threadUintr struct {
	vector  int
	upid    *uintr.UPID
	handler uintr.Handler
}

// Kernel is the AeoKern instance for one simulated machine.
type Kernel struct {
	eng *sim.Engine
	sch *sched.EEVDF
	dev *nvme.Device

	Sys      *mpk.System
	Registry *mpk.Registry

	ui        []*uintr.CoreState
	vecOwners map[int]KernelDeliver
	// nextVector is the lowest never-allocated vector; freeVectors holds the
	// ones returned by FreeVector, reused before the range grows.
	nextVector  int
	freeVectors []int

	threads map[*sim.Task]*threadUintr
	// vecUPIDs maps a notification vector to the UPID it notifies for, so
	// the per-core IRQ ranking can rate a raised vector by the most urgent
	// class pending in that UPID.
	vecUPIDs map[int]*uintr.UPID

	nextPID int

	// SpuriousKernelIRQs counts interrupts no owner claimed.
	SpuriousKernelIRQs uint64
}

// New creates the kernel for a machine, installing the interrupt handler on
// every core and the context-switch hooks that maintain the UINTR MSRs.
func New(eng *sim.Engine, sch *sched.EEVDF, dev *nvme.Device) *Kernel {
	k := &Kernel{
		eng:        eng,
		sch:        sch,
		dev:        dev,
		Sys:        mpk.NewSystem(),
		Registry:   mpk.NewRegistry(),
		vecOwners:  make(map[int]KernelDeliver),
		threads:    make(map[*sim.Task]*threadUintr),
		vecUPIDs:   make(map[int]*uintr.UPID),
		nextVector: firstDeviceVector,
	}
	for _, c := range eng.Cores() {
		k.ui = append(k.ui, uintr.NewCoreState())
		c.SetIRQHandler(k.isr)
		c.SetIRQRank(k.irqRank)
	}
	eng.TaskRunHook = k.onSwitchIn
	eng.TaskStopHook = k.onSwitchOut
	return k
}

// Engine returns the machine's engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Device returns the machine's NVMe device.
func (k *Kernel) Device() *nvme.Device { return k.dev }

// Sched returns the machine's EEVDF scheduler (the sched_ext policy).
func (k *Kernel) Sched() *sched.EEVDF { return k.sch }

// UI returns core c's user-interrupt MSR state (privileged access).
func (k *Kernel) UI(c *sim.Core) *uintr.CoreState { return k.ui[c.ID] }

// NewProcess registers a process with the given disk partition.
func (k *Kernel) NewProcess(name string, part Partition) (*Process, error) {
	if part.Start+part.Blocks > k.dev.NumBlocks() {
		return nil, fmt.Errorf("%w: [%d,+%d) on %d-block device",
			ErrBadPartition, part.Start, part.Blocks, k.dev.NumBlocks())
	}
	k.nextPID++
	p := &Process{
		ID:        k.nextPID,
		Name:      name,
		Thread:    mpk.NewUntrustedThread(),
		Partition: part,
		kern:      k,
	}
	return p, nil
}

// AllocQueuePair hands the process an NVMe queue pair, mapped into its
// address space (③ in Table 4's backing service).
func (k *Kernel) AllocQueuePair(p *Process, depth int) (*nvme.QueuePair, error) {
	if p.qps >= ProcessQPLimit {
		return nil, ErrQPLimit
	}
	qp, err := k.dev.CreateQueuePair(depth)
	if err != nil {
		return nil, err
	}
	p.qps++
	return qp, nil
}

// FreeQueuePair returns a queue pair to the kernel.
func (k *Kernel) FreeQueuePair(p *Process, qp *nvme.QueuePair) {
	k.dev.DeleteQueuePair(qp)
	p.qps--
}

// AllocVector reserves a hardware interrupt vector (a freed one if any,
// else the next fresh one) and registers the kernel-path delivery callback
// for it.
func (k *Kernel) AllocVector(deliver KernelDeliver) (int, error) {
	var v int
	switch n := len(k.freeVectors); {
	case n > 0:
		v = k.freeVectors[n-1]
		k.freeVectors = k.freeVectors[:n-1]
	case k.nextVector > 0xff:
		return 0, ErrNoVectors
	default:
		v = k.nextVector
		k.nextVector++
	}
	if deliver != nil {
		k.vecOwners[v] = deliver
	}
	return v, nil
}

// FreeVector returns a vector obtained from AllocVector. Its delivery
// callback is dropped first, so an interrupt still in flight for the vector
// counts as spurious instead of reaching the previous owner.
func (k *Kernel) FreeVector(v int) {
	delete(k.vecOwners, v)
	k.freeVectors = append(k.freeVectors, v)
}

// RegisterThreadUintr installs per-thread user-interrupt state: the thread's
// notification vector, its kernel-mapped UPID, and its userspace handler.
// From now on, context switches maintain the core's UINV/UPIDADDR/UIHANDLER
// for this thread (§4.2: "the kernel can configure UINV upon AeoDriver
// initialization and maintain it across thread context switches").
func (k *Kernel) RegisterThreadUintr(t *sim.Task, vector int, upid *uintr.UPID, h uintr.Handler) {
	tu := &threadUintr{vector: vector, upid: upid, handler: h}
	k.threads[t] = tu
	k.vecUPIDs[vector] = upid
	// If the thread is already on a core, install immediately.
	if c := t.Core(); c != nil {
		k.installUintr(c, tu)
	}
}

// UnregisterThreadUintr removes a thread's user-interrupt state.
func (k *Kernel) UnregisterThreadUintr(t *sim.Task) {
	tu, ok := k.threads[t]
	if ok {
		delete(k.vecUPIDs, tu.vector)
	}
	delete(k.threads, t)
	// If the thread is on a core, uninstall immediately: a notification
	// still in flight must not be recognized into the dead handler.
	if c := t.Core(); ok && c != nil {
		k.clearUintr(c)
	}
}

// irqRank rates a raised vector for the cores' nested-delivery decision:
// the most urgent priority class pending in the vector's UPID, or
// NumClasses (never preempts, never preempted by an equal) for unclassed
// UPIDs and plain kernel vectors. Legacy class-less configurations thus
// keep strict FIFO delivery.
func (k *Kernel) irqRank(vec int) int {
	if u := k.vecUPIDs[vec]; u != nil && u.Classes != nil {
		if cl, ok := u.Classes.MinClass(u.PIR); ok {
			return int(cl)
		}
	}
	return int(uintr.NumClasses)
}

// MapUPID allocates a UPID for delivery to core dest with notification
// vector nv, and "maps it into the process address space" by tagging its
// backing region with the trusted entity's protection key (§4.2).
func (k *Kernel) MapUPID(dest *sim.Core, nv int, gate *mpk.Gate) (*uintr.UPID, *mpk.Region) {
	u := &uintr.UPID{NV: nv, DestCPU: dest.ID}
	region := k.Sys.NewRegion(fmt.Sprintf("upid-nv%#x", nv), gate.Key())
	return u, region
}

// ProgramMSIX remaps a queue pair's completion signal. If upid is non-nil
// the completion posts uv into the UPID and notifies its destination core —
// the §4.2 user-interrupt remapping. Otherwise the completion raises nv as
// a regular kernel interrupt on dest.
func (k *Kernel) ProgramMSIX(qp *nvme.QueuePair, upid *uintr.UPID, uv uint8, dest *sim.Core, nv int) {
	qp.Vector = nv
	if upid != nil {
		qp.OnCompletion = func(q *nvme.QueuePair) {
			uintr.PostAndNotify(k.eng, upid, uv)
		}
		return
	}
	qp.OnCompletion = func(q *nvme.QueuePair) {
		dest.RaiseIRQ(nv)
	}
}

// CheckMapProt is the memory-management syscall interception of §5 (I2).
func (k *Kernel) CheckMapProt(p mpk.Prot) error { return mpk.CheckMapProt(p) }

// onSwitchIn installs the incoming thread's UINTR state on the core.
func (k *Kernel) onSwitchIn(c *sim.Core, t *sim.Task) {
	if tu, ok := k.threads[t]; ok {
		k.installUintr(c, tu)
		return
	}
	k.clearUintr(c)
}

// onSwitchOut clears the core's UINTR state so that interrupts for the
// outgoing thread take the kernel (out-of-schedule) path.
func (k *Kernel) onSwitchOut(c *sim.Core, t *sim.Task) {
	k.clearUintr(c)
}

func (k *Kernel) installUintr(c *sim.Core, tu *threadUintr) {
	cs := k.ui[c.ID]
	cs.UINV = tu.vector
	cs.UPID = tu.upid
	cs.Handler = tu.handler
}

func (k *Kernel) clearUintr(c *sim.Core) {
	cs := k.ui[c.ID]
	cs.UINV = -1
	cs.UPID = nil
	cs.Handler = nil
}

// isr is the machine's interrupt dispatch: delivery step 1 checks the
// core's UINV; matches are handled entirely in userspace (charging the
// user-interrupt delivery cost), everything else falls to the kernel
// vector owner.
func (k *Kernel) isr(ctx *sim.IRQCtx, vec int) {
	cs := k.ui[ctx.Core().ID]
	if cs.Recognize(vec) {
		if tr := k.eng.Tracer; tr != nil {
			tr.Emit(k.eng.Now(), trace.UINTRDeliver, ctx.Core().ID, -1, trace.NoCID, 0,
				uint64(bits.OnesCount64(cs.UIRR)))
		}
		ctx.Charge(timing.UserInterrupt)
		// A recognition that delivers nothing is spurious only when the
		// UIRR is truly empty: a nested recognition may leave lower-class
		// bits pending for the interrupted drain (the class floor), and an
		// out-of-user recognition leaves them for the switch-in path.
		if cs.DeliverPending(ctx) == 0 && cs.UIRR == 0 {
			cs.Spurious++
		}
		return
	}
	if deliver, ok := k.vecOwners[vec]; ok {
		deliver(ctx, vec)
		return
	}
	k.SpuriousKernelIRQs++
}

// ExtMap exposes the sched_ext eBPF-map view trusted entities read.
func (k *Kernel) ExtMap() *sched.ExtMap { return k.sch.Ext() }
