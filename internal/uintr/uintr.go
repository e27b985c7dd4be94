// Package uintr models the Intel user-interrupt (UINTR) hardware described
// in §4.1 of the paper: per-core MSR state (UINV, UIHANDLER, UIRR, UPIDADDR,
// UITTADDR), the user posted-interrupt descriptor (UPID), the user-interrupt
// target table (UITT), the SENDUIPI instruction, and the two-phase delivery
// state machine (identification + signaling).
//
// Aeolia's key trick (§4.2) — remapping a storage device's MSI-X vector so
// that completions post into the UPID and match UINV — is expressed here as
// PostAndNotify, which is exactly what the repurposed MSI-X write does.
package uintr

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

// MaxVectors is the number of user-interrupt vectors per UPID (the PIR is a
// 64-bit bitmap).
const MaxVectors = 64

// NotifyVerdict is a fault-injection decision about one notification
// interrupt. The zero value delivers normally.
type NotifyVerdict struct {
	// Drop loses the notification entirely: the PIR bit stays posted but
	// no core ever recognizes it (the recipient needs a recovery path —
	// polling, a watchdog, or the next notification).
	Drop bool
	// Delay postpones the notification by the given virtual time. A
	// delayed notification may find its target context-switched out and
	// take the out-of-schedule kernel fallback path.
	Delay time.Duration
	// Duplicates raises the notification this many extra times (spurious
	// re-delivery, as a level-triggered line or IOMMU replay can cause).
	Duplicates int
}

// NotifyHook intercepts notification interrupts for fault injection. It is
// consulted once per would-be notification (after SN suppression); the
// production path pays one nil-check.
type NotifyHook interface {
	OnNotify(u *UPID, vector uint8) NotifyVerdict
}

// UPID is a user posted-interrupt descriptor. In hardware this is a 16-byte
// memory structure owned by the kernel; Aeolia maps it into the trusted
// driver's protection domain so the userspace handler can rewrite PIR.
type UPID struct {
	// PIR is the posted-interrupt request bitmap; each set bit is a
	// pending user interrupt vector.
	PIR uint64
	// SN (suppress notification) masks physical notification interrupts.
	SN bool
	// ON is the outstanding-notification bit: set while a notification
	// interrupt has been sent but the PIR not yet recognized. Further
	// posts accumulate in the PIR without raising additional physical
	// interrupts — the hardware-level coalescing that lets one delivery
	// drain every pending vector. Recognition (TakePIR) clears it.
	ON bool
	// NV is the notification vector delivered to DestCPU when a bit is
	// posted (the "physical" interrupt the CPU recognizes in step 1).
	NV int
	// DestCPU is the core user IPIs and notifications are sent to.
	DestCPU int

	// Classes, if set, partitions the PIR's vectors into priority classes
	// (delivery drains strictly highest-class-first and urgent posts may
	// preempt lower-class handlers). Nil keeps the legacy class-less
	// behavior.
	Classes *ClassMap

	// Hook, if set, intercepts notifications for fault injection.
	Hook NotifyHook

	// The Notify* counters are the machine's last atomics outside
	// nvme.SPSC. Nothing reads them from another goroutine: they stay
	// atomic.Uint64 because benchmarks/aeoperf reads NotifySent and
	// NotifySuppressed through Load, and they become plain fields together
	// with that reader.
	//
	// Notification fault stats (only advanced when Hook is set).
	NotifyDropped atomic.Uint64
	NotifyDelayed atomic.Uint64
	NotifyDuped   atomic.Uint64

	// NotifySent counts physical notification interrupts actually raised;
	// NotifySuppressed counts posts coalesced behind an outstanding one;
	// NotifyMasked counts posts that found SN set (the bit is in the PIR, no
	// interrupt was raised, and the hook was not consulted).
	NotifySent       atomic.Uint64
	NotifySuppressed atomic.Uint64
	NotifyMasked     atomic.Uint64
}

// TakePIR atomically consumes the posted bitmap: it returns the current PIR
// and clears both PIR and ON, re-arming notification generation. This is the
// recognition step — everything posted while ON was set is drained here by
// the single notification that set it.
func (u *UPID) TakePIR() uint64 {
	pir := u.PIR
	u.PIR = 0
	u.ON = false
	return pir
}

// notify raises the UPID's notification vector on its destination core,
// honoring SN and the fault-injection hook. It is the single exit point for
// both SENDUIPI and remapped MSI-X notifications.
func notify(eng *sim.Engine, u *UPID, vector uint8) {
	if u.SN {
		u.NotifyMasked.Add(1)
		return
	}
	if u.ON {
		// A notification is already in flight and its recognition will
		// drain this post too (TakePIR). Coalesce: no second interrupt.
		u.NotifySuppressed.Add(1)
		return
	}
	if u.Hook == nil {
		u.ON = true
		u.NotifySent.Add(1)
		eng.Core(u.DestCPU).RaiseIRQ(u.NV)
		return
	}
	raise := func() { eng.Core(u.DestCPU).RaiseIRQ(u.NV) }
	v := u.Hook.OnNotify(u, vector)
	if v.Drop {
		// ON deliberately stays clear: a dropped notification must not
		// suppress future ones, or recovery would be impossible.
		u.NotifyDropped.Add(1)
		return
	}
	u.ON = true
	u.NotifySent.Add(1)
	deliver := func() {
		if v.Delay > 0 {
			u.NotifyDelayed.Add(1)
			eng.Schedule(v.Delay, raise)
		} else {
			raise()
		}
	}
	deliver()
	for i := 0; i < v.Duplicates; i++ {
		u.NotifyDuped.Add(1)
		deliver()
	}
}

// Post sets vector's bit in the PIR. It reports whether the bit was newly
// set (hardware coalesces an already-pending vector).
func (u *UPID) Post(vector uint8) bool {
	if vector >= MaxVectors {
		panic(fmt.Sprintf("uintr: vector %d out of range", vector))
	}
	bit := uint64(1) << vector
	was := u.PIR&bit != 0
	u.PIR |= bit
	return !was
}

// UITTEntry is one user-interrupt target table entry: the target UPID and
// the user vector SENDUIPI posts there.
type UITTEntry struct {
	Valid bool
	UPID  *UPID
	UV    uint8
}

// Handler is a userspace user-interrupt handler. It runs in interrupt
// context on the simulated core with the delivered vector; cost must be
// charged by the surrounding dispatch (the delivery toll) or via ctx.Charge.
type Handler func(ctx *sim.IRQCtx, vector uint8)

// CoreState is the per-core user-interrupt MSR state (UINV, UIHANDLER,
// UIRR, UPIDADDR, UITTADDR). Only privileged software (AeoKern) may mutate
// it; the simulation enforces this by confining mutation to the kernel
// model's context-switch and setup paths.
type CoreState struct {
	// UINV is the user-interrupt notification vector recognized in
	// delivery step 1; -1 means user interrupts are disabled on the core.
	UINV int
	// UIRR is the user-interrupt request register bitmap (pending user
	// interrupts already accepted by the core).
	UIRR uint64
	// Handler is the UIHANDLER target.
	Handler Handler
	// UPID is the UPIDADDR target for the thread currently on the core.
	UPID *UPID
	// UITT is the UITTADDR target.
	UITT []UITTEntry
	// InUser reports whether the core currently executes ring-3 code of
	// the thread owning UPID; delivery step 3 checks it. If nil the core
	// is always considered in user mode.
	InUser func() bool

	// Delivered counts user interrupts delivered to the handler.
	Delivered uint64
	// Spurious counts deliveries that found no pending vector (e.g. the
	// vector-sharing artifact of §4.2).
	Spurious uint64
	// Preemptions counts nested (preemptive) deliveries: a more urgent
	// vector delivered while a lower-class handler was in progress.
	Preemptions uint64

	// active is the stack of classes whose handlers are currently
	// executing (innermost last); a nested recognition only delivers
	// vectors strictly more urgent than the innermost active class.
	active []Class
	// recog counts recognitions; per-vector delivery trace events carry it
	// so the analyzer can group the deliveries drained by one poll.
	recog uint32
}

// NewCoreState returns a disabled user-interrupt unit.
func NewCoreState() *CoreState {
	return &CoreState{UINV: -1}
}

// Recognize implements delivery steps 1-2 for an arriving physical
// interrupt: if vector matches UINV and a UPID is installed, the PIR is
// transferred into UIRR (and cleared) and Recognize returns true; otherwise
// the interrupt must be handled as a regular kernel interrupt and Recognize
// returns false.
func (cs *CoreState) Recognize(vector int) bool {
	if cs.UINV < 0 || vector != cs.UINV || cs.UPID == nil {
		return false
	}
	cs.UIRR |= cs.UPID.TakePIR()
	cs.recog++
	return true
}

// DeliverPending implements steps 3-4: if the core is in user mode, invoke
// the user handler once per pending UIRR bit. Without a priority ClassMap
// on the UPID the drain order is highest vector first, as the hardware
// does. With one, the drain is strictly highest-class-first (ascending
// Class value; highest vector first within a class), and a DeliverPending
// that interrupts an in-progress handler — a preemptive nested delivery —
// only drains vectors strictly more urgent than that handler's class,
// leaving the rest in the UIRR for the interrupted drain to pick up. Each
// delivery clears its bit. Returns the number of handler invocations.
func (cs *CoreState) DeliverPending(ctx *sim.IRQCtx) int {
	if cs.InUser != nil && !cs.InUser() {
		return 0
	}
	floor := NumClasses
	if d := len(cs.active); d > 0 {
		floor = cs.active[d-1]
	}
	rid := cs.recog
	classed := cs.UPID != nil && cs.UPID.Classes != nil
	n := 0
	for {
		v, cl, ok := cs.nextPending(floor)
		if !ok {
			return n
		}
		cs.UIRR &^= uint64(1) << v
		cs.Delivered++
		n++
		nested := len(cs.active) > 0
		if nested {
			cs.Preemptions++
		}
		if ctx != nil && classed {
			if tr := ctx.Engine().Tracer; tr != nil {
				core := ctx.Core().ID
				now := ctx.Now()
				if nested {
					tr.Emit(now, trace.UINTRPreempt, core, -1, uint32(len(cs.active)),
						uint64(cs.active[len(cs.active)-1]), uint64(cl)<<8|uint64(v))
				}
				tr.Emit(now, trace.UINTRVecDeliver, core, -1, rid, uint64(v), uint64(cl))
			}
		}
		cs.active = append(cs.active, cl)
		if cs.Handler != nil {
			cs.Handler(ctx, v)
		}
		cs.active = cs.active[:len(cs.active)-1]
	}
}

// nextPending returns the next vector to deliver: the highest vector of the
// most urgent pending class, considering only classes strictly more urgent
// than floor.
func (cs *CoreState) nextPending(floor Class) (uint8, Class, bool) {
	if cs.UIRR == 0 {
		return 0, 0, false
	}
	var m *ClassMap
	if cs.UPID != nil {
		m = cs.UPID.Classes
	}
	for cl := Class(0); cl < floor; cl++ {
		if pending := cs.UIRR & m.Mask(cl); pending != 0 {
			return uint8(63 - bits.LeadingZeros64(pending)), cl, true
		}
	}
	return 0, 0, false
}

// SendUIPI executes the SENDUIPI instruction against this core's UITT:
// it posts the entry's UV into the target UPID and, unless notifications
// are suppressed, raises the notification vector on the destination core.
// It returns the target UPID so callers can model further effects.
func (cs *CoreState) SendUIPI(eng *sim.Engine, index int) (*UPID, error) {
	if index < 0 || index >= len(cs.UITT) || !cs.UITT[index].Valid {
		return nil, fmt.Errorf("uintr: invalid UITT index %d (#GP)", index)
	}
	ent := cs.UITT[index]
	ent.UPID.Post(ent.UV)
	if tr := eng.Tracer; tr != nil {
		tr.Emit(eng.Now(), trace.UPIDPost, ent.UPID.DestCPU, -1, trace.NoCID, postClassLBA(ent.UPID, ent.UV), uint64(ent.UV))
	}
	notify(eng, ent.UPID, ent.UV)
	return ent.UPID, nil
}

// PostAndNotify models a device MSI-X write that AeoKern remapped onto the
// user-interrupt path (§4.2): post vector into the UPID and raise its
// notification vector on the destination core.
func PostAndNotify(eng *sim.Engine, u *UPID, vector uint8) {
	u.Post(vector)
	if tr := eng.Tracer; tr != nil {
		tr.Emit(eng.Now(), trace.UPIDPost, u.DestCPU, -1, trace.NoCID, postClassLBA(u, vector), uint64(vector))
	}
	notify(eng, u, vector)
}

// postClassLBA encodes a classed post's class into the UPIDPost event's LBA
// field as class+1; unclassed UPIDs emit 0, keeping legacy traces stable.
func postClassLBA(u *UPID, vector uint8) uint64 {
	if u.Classes == nil {
		return 0
	}
	return uint64(u.Classes.Of(vector)) + 1
}
