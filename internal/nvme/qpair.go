package nvme

import (
	"errors"
	"fmt"
	"time"

	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

// Coalescing configures completion-interrupt aggregation on a queue pair,
// modeled on the NVMe Interrupt Coalescing feature (Set Features 08h): an
// aggregation threshold (MaxEvents) and an aggregation time (MaxDelay). The
// device raises the CQ interrupt when MaxEvents completions have accumulated
// without a notification, or MaxDelay after the first unnotified completion,
// whichever comes first. The zero value disables coalescing: every CQE
// raises its own interrupt.
type Coalescing struct {
	// MaxEvents is the aggregation threshold; values <= 1 disable
	// coalescing.
	MaxEvents int
	// MaxDelay is the aggregation time. When coalescing is enabled and
	// MaxDelay is zero, DefaultCoalesceDelay applies, so a stalled queue
	// can never hold a posted CQE without an eventual interrupt.
	MaxDelay time.Duration
	// UrgentMax enables per-class bypass of the aggregation: a completion
	// whose command carried a non-zero Prio tag <= UrgentMax raises the CQ
	// interrupt immediately (covering everything aggregated so far)
	// instead of waiting for MaxEvents/MaxDelay. 0 disables the bypass.
	UrgentMax uint8
	// ClassDelays grades the aggregation time by completion class:
	// ClassDelays[p-1] is the aggregation-time budget for a completion
	// whose command carried priority tag p. A pending completion with a
	// shorter budget tightens the armed timer (the interrupt fires at the
	// minimum deadline across everything aggregated), so an impatient
	// class never waits out a patient one's full MaxDelay. Tags beyond the
	// table, untagged completions, and zero entries all use MaxDelay;
	// entries are clamped to MaxDelay (MaxDelay stays the worst case the
	// driver's lost-notification watchdog may assume). Nil disables
	// grading: every completion waits MaxDelay.
	ClassDelays []time.Duration
}

// delayFor returns the aggregation-time budget for a completion carrying
// priority tag prio (0 = untagged).
func (c Coalescing) delayFor(prio uint8) time.Duration {
	if prio == 0 || int(prio) > len(c.ClassDelays) {
		return c.MaxDelay
	}
	d := c.ClassDelays[prio-1]
	if d <= 0 || d > c.MaxDelay {
		return c.MaxDelay
	}
	return d
}

// GradedDelays builds a ClassDelays table for n priority tags where each
// more-urgent class halves the aggregation time: tag n (least urgent)
// waits the full maxDelay, tag n-1 half of it, and so on. The most urgent
// tags are normally also covered by UrgentMax and never consult the table.
func GradedDelays(maxDelay time.Duration, n int) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = maxDelay >> uint(n-1-i)
	}
	return ds
}

// DefaultCoalesceDelay is the aggregation time used when Coalescing enables
// the threshold but leaves MaxDelay zero (100µs, the granularity real NVMe
// controllers use for the aggregation-time field).
const DefaultCoalesceDelay = 100 * time.Microsecond

// enabled reports whether the configuration actually aggregates.
func (c Coalescing) enabled() bool { return c.MaxEvents > 1 }

// QueuePair is one NVMe submission/completion queue pair mapped into a
// driver's address space. The host fills SQ slots and rings the tail
// doorbell; the device posts CQEs with alternating phase bits and the host
// consumes them, updating the head doorbell.
//
// The ring indices model the hardware queue protocol: each cursor has
// exactly one writer (host side: sqTail, cqHead; device side: sqHead,
// cqTail, cqCount) and moves only after the slots it covers are written,
// so the other side reads fully written entries — no lock anywhere on the
// queue-pair hot path.
type QueuePair struct {
	ID    int
	dev   *Device
	depth int

	sq     []SubmissionEntry
	sqTail int // host-published: next SQ slot to fill
	sqHead int // device-published: next SQ slot to consume

	cq      []CompletionEntry
	cqHead  int // host-published: next CQ slot to consume
	cqTail  int // device-published: next CQ slot to post
	phase   bool
	cqCount int // occupied CQ slots

	// Vector is the interrupt vector the device signals on completion
	// (the MSI-X table entry AeoKern programs).
	Vector int

	// OnCompletion, if set, is invoked each time a CQE is posted — the
	// "wire" of the MSI-X interrupt. Polling drivers leave it nil.
	OnCompletion func(qp *QueuePair)

	// pending maps CID -> the submitter's completion handle (the entry's
	// Done), letting driver models wait for specific commands.
	pending map[uint16]*sim.Completion
	// prio remembers in-flight commands' non-zero priority tags so the
	// completion side can apply the per-class coalescing bypass.
	prio map[uint16]uint8

	nextCID uint16

	// coalesce is the interrupt-coalescing configuration; unNotified
	// counts CQEs posted since the last interrupt, coalesceEv is the
	// armed aggregation timer and coalesceDeadline its expiry.
	coalesce         Coalescing
	unNotified       int
	coalesceEv       sim.Timer
	coalesceDeadline time.Duration
	coalesceFn       func() // qp.coalesceExpired, bound once

	// Submitted counts commands accepted into the SQ.
	Submitted uint64
	// Completed counts CQEs posted.
	Completed uint64
	// SQDoorbells counts SQ tail doorbell writes; with batched submission
	// it grows slower than Submitted.
	SQDoorbells uint64
	// MaxSQBurst is the largest number of commands one doorbell write
	// handed to the device.
	MaxSQBurst int
	// IRQRaised counts CQ interrupts actually raised; IRQCoalesced counts
	// completions that were aggregated into a later interrupt instead of
	// raising their own; IRQSuppressed counts aggregations cancelled
	// because the host drained the CQ by polling first.
	IRQRaised     uint64
	IRQCoalesced  uint64
	IRQSuppressed uint64
	// IRQBypassed counts urgent-class completions that bypassed an armed
	// aggregation and raised their interrupt immediately (Coalescing.UrgentMax).
	IRQBypassed uint64
}

// emit records a trace event against the owning device's engine; a no-op
// when tracing is off. Queue-side events have no core context (core -1).
func (qp *QueuePair) emit(typ trace.Type, cid uint32, lba, aux uint64) {
	if tr := qp.dev.eng.Tracer; tr != nil {
		tr.Emit(qp.dev.eng.Now(), typ, -1, qp.ID, cid, lba, aux)
	}
}

func newQueuePair(d *Device, id, depth int) *QueuePair {
	qp := &QueuePair{
		ID:      id,
		dev:     d,
		depth:   depth,
		sq:      make([]SubmissionEntry, depth),
		cq:      make([]CompletionEntry, depth),
		phase:   true,
		pending: make(map[uint16]*sim.Completion),
		prio:    make(map[uint16]uint8),
	}
	qp.coalesceFn = qp.coalesceExpired
	return qp
}

// SetCoalescing configures CQ interrupt coalescing. Reconfiguring an active
// queue flushes any armed aggregation immediately so no completion is
// stranded under the old thresholds.
func (qp *QueuePair) SetCoalescing(c Coalescing) {
	if c.enabled() && c.MaxDelay <= 0 {
		c.MaxDelay = DefaultCoalesceDelay
	}
	if qp.unNotified > 0 {
		qp.raiseCoalesced()
	}
	qp.coalesce = c
}

// NotifyPending reports whether completions are sitting in the CQ waiting
// for the coalescing aggregation to raise their interrupt. Watchdogs use it
// to distinguish an intentionally-held notification from a lost one.
func (qp *QueuePair) NotifyPending() bool { return qp.unNotified > 0 }

// Inflight returns the number of commands submitted whose CQE has not yet
// been posted.
func (qp *QueuePair) Inflight() int {
	return int(qp.Submitted - qp.Completed)
}

// ErrSQFull is returned by Submit when the submission queue has no free
// slot.
var ErrSQFull = errors.New("nvme: submission queue full")

// ErrDoorbell is returned for out-of-range or inconsistent doorbell writes
// (a real controller would raise an asynchronous "invalid doorbell write
// value" error, AER status 0x1).
var ErrDoorbell = errors.New("nvme: invalid doorbell write")

// Submit places one command into the submission queue and rings the tail
// doorbell: a batch of one. It returns the completion handle that fires when
// the CQE is posted — e.Done, or a fresh one if the caller supplied none.
// The caller must not reuse e.Data until completion.
func (qp *QueuePair) Submit(e SubmissionEntry) (*sim.Completion, error) {
	if e.Done == nil {
		e.Done = sim.NewCompletion()
	}
	one := [1]SubmissionEntry{e}
	var cid [1]uint16
	if _, err := qp.SubmitBatch(cid[:0], one[:]); err != nil {
		return nil, err
	}
	return e.Done, nil
}

// SubmitBatch places all entries into the submission queue and rings the
// tail doorbell once — the batched-submission hot path: N commands, one
// MMIO write, and the device drains the whole burst. The CIDs assigned to the
// accepted commands are appended to dst (nil, or a caller-owned scratch
// slice) in entry order.
// The batch is all-or-nothing: if the SQ lacks room for every entry, nothing
// is enqueued and ErrSQFull is returned. Callers must not reuse any entry's
// Data until its completion fires.
func (qp *QueuePair) SubmitBatch(dst []uint16, entries []SubmissionEntry) ([]uint16, error) {
	n := len(entries)
	if n == 0 {
		return dst, nil
	}
	if qp.Inflight()+n > qp.depth-1 {
		return dst, fmt.Errorf("%w: queue %d (batch %d, free %d)",
			ErrSQFull, qp.ID, n, qp.depth-1-qp.Inflight())
	}
	base := len(dst)
	tail := qp.sqTail
	for _, e := range entries {
		qp.nextCID++
		e.CID = qp.nextCID
		qp.sq[tail] = e
		tail = (tail + 1) % qp.depth
		if e.Done != nil {
			qp.pending[e.CID] = e.Done
		}
		if e.Prio != 0 {
			qp.prio[e.CID] = e.Prio
		}
		dst = append(dst, e.CID)
		qp.emit(trace.SQEPrep, uint32(e.CID), e.SLBA, uint64(e.NLB))
	}
	if err := qp.WriteSQDoorbell(tail); err != nil {
		for _, cid := range dst[base:] {
			delete(qp.pending, cid)
			delete(qp.prio, cid)
		}
		return dst[:base], err
	}
	return dst, nil
}

// WriteSQDoorbell writes the submission-queue tail doorbell: the device
// consumes every SQ slot from the current head up to (excluding) tail. An
// out-of-range value is rejected, like a controller flagging an invalid
// doorbell write instead of reading garbage entries.
func (qp *QueuePair) WriteSQDoorbell(tail int) error {
	if tail < 0 || tail >= qp.depth {
		return fmt.Errorf("%w: SQ tail %d (depth %d)", ErrDoorbell, tail, qp.depth)
	}
	qp.SQDoorbells++
	head := qp.sqHead
	burst := (tail - head + qp.depth) % qp.depth
	if burst > qp.MaxSQBurst {
		qp.MaxSQBurst = burst
	}
	qp.emit(trace.DoorbellWrite, trace.NoCID, 0, uint64(burst))
	// Publish the new tail before the device consumes: the slots it covers
	// are fully written above.
	qp.sqTail = tail
	for head != tail {
		e := &qp.sq[head]
		head = (head + 1) % qp.depth
		qp.sqHead = head
		qp.Submitted++
		qp.dev.process(qp, e)
	}
	return nil
}

// WriteCQDoorbell writes the completion-queue head doorbell, releasing the
// consumed CQ slots back to the device. The head may only advance over
// occupied slots; moving it past the tail (or out of range) is rejected.
func (qp *QueuePair) WriteCQDoorbell(head int) error {
	if head < 0 || head >= qp.depth {
		return fmt.Errorf("%w: CQ head %d (depth %d)", ErrDoorbell, head, qp.depth)
	}
	dist := (head - qp.cqHead + qp.depth) % qp.depth
	if dist > qp.cqCount {
		return fmt.Errorf("%w: CQ head %d advances past tail %d", ErrDoorbell, head, qp.cqTail)
	}
	qp.cqHead = head
	qp.cqCount -= dist
	return nil
}

// postCompletion is called by the device when a command finishes.
func (qp *QueuePair) postCompletion(cid uint16, st Status) {
	if qp.cqCount == qp.depth {
		// A real device would stall; with SQ depth == CQ depth this
		// cannot happen unless the host never consumes CQEs it was
		// notified about.
		panic("nvme: completion queue overflow")
	}
	tail := qp.cqTail
	qp.cq[tail] = CompletionEntry{
		CID:    cid,
		Status: st,
		SQHead: uint16(qp.sqHead),
		Phase:  qp.phase,
	}
	tail = (tail + 1) % qp.depth
	// The phase bit makes the freshly written CQE self-describing; the tail
	// publication follows the slot write, mirroring the SQ side.
	qp.cqTail = tail
	if tail == 0 {
		qp.phase = !qp.phase
	}
	qp.cqCount++
	qp.Completed++
	qp.emit(trace.CQEPost, uint32(cid), 0, uint64(st))

	// The command's completion handle fires when its CQE becomes visible:
	// this is the instant a poller could discover it.
	if comp := qp.pending[cid]; comp != nil {
		delete(qp.pending, cid)
		comp.FireAt(qp.dev.eng.Now())
	}

	var prio uint8
	if len(qp.prio) > 0 {
		prio = qp.prio[cid]
		delete(qp.prio, cid)
	}
	qp.signalCompletion(cid, prio)
}

// signalCompletion decides whether the freshly posted CQE (cid) raises the
// CQ interrupt now, joins an armed aggregation, or starts one. An
// urgent-tagged completion (prio <= UrgentMax, non-zero) never waits:
// it fires the interrupt immediately, covering everything aggregated so
// far.
func (qp *QueuePair) signalCompletion(cid uint16, prio uint8) {
	if qp.OnCompletion == nil {
		return
	}
	if !qp.coalesce.enabled() {
		qp.IRQRaised++
		qp.emit(trace.IRQRaise, uint32(cid), 0, 1)
		qp.OnCompletion(qp)
		return
	}
	qp.unNotified++
	if qp.coalesce.UrgentMax > 0 && prio != 0 && prio <= qp.coalesce.UrgentMax {
		qp.IRQBypassed++
		qp.emit(trace.IRQBypass, uint32(cid), 0, uint64(qp.unNotified))
		qp.raiseCoalesced()
		return
	}
	if qp.unNotified >= qp.coalesce.MaxEvents {
		qp.raiseCoalesced()
		return
	}
	qp.IRQCoalesced++
	qp.emit(trace.IRQCoalesce, uint32(cid), 0, uint64(qp.unNotified))
	deadline := qp.dev.eng.Now() + qp.coalesce.delayFor(prio)
	if !qp.coalesceEv.Armed() {
		qp.armCoalesce(deadline)
	} else if deadline < qp.coalesceDeadline {
		// A more impatient class joined the aggregation: tighten the armed
		// timer to its budget. The deadline only ever moves earlier.
		qp.coalesceEv.Cancel()
		qp.armCoalesce(deadline)
	}
}

// armCoalesce schedules the aggregation timer to fire at deadline.
func (qp *QueuePair) armCoalesce(deadline time.Duration) {
	qp.coalesceDeadline = deadline
	qp.coalesceEv = qp.dev.eng.Schedule(deadline-qp.dev.eng.Now(), qp.coalesceFn)
}

// coalesceExpired is the aggregation timer running out.
func (qp *QueuePair) coalesceExpired() {
	qp.coalesceEv = sim.Timer{}
	if qp.unNotified > 0 {
		qp.raiseCoalesced()
	}
}

// raiseCoalesced fires the aggregated CQ interrupt and resets the
// aggregation state.
func (qp *QueuePair) raiseCoalesced() {
	if qp.coalesceEv.Armed() {
		qp.coalesceEv.Cancel()
	}
	qp.coalesceEv = sim.Timer{}
	covered := qp.unNotified
	qp.unNotified = 0
	if qp.OnCompletion == nil {
		return
	}
	qp.IRQRaised++
	qp.emit(trace.IRQRaise, trace.NoCID, 0, uint64(covered))
	qp.OnCompletion(qp)
}

// Poll consumes up to max CQEs (0 = all available) and returns them. This is
// the polling/interrupt-handler consume path; it advances the CQ head
// doorbell.
func (qp *QueuePair) Poll(max int) []CompletionEntry { return qp.PollAppend(nil, max) }

// PollAppend is Poll appending to out (a caller-owned scratch slice, as in
// SubmitBatch), so a handler that drains into a buffer on its stack
// allocates nothing.
func (qp *QueuePair) PollAppend(out []CompletionEntry, max int) []CompletionEntry {
	base := len(out)
	for qp.cqCount > 0 && (max == 0 || len(out)-base < max) {
		head := qp.cqHead
		ce := qp.cq[head]
		qp.cqHead = (head + 1) % qp.depth
		qp.cqCount--
		out = append(out, ce)
		qp.emit(trace.CQEConsume, uint32(ce.CID), 0, uint64(ce.Status))
	}
	if qp.cqCount == 0 && qp.unNotified > 0 {
		// The host consumed every aggregated CQE by polling; the armed
		// interrupt would only find an empty queue, so suppress it.
		qp.IRQSuppressed += uint64(qp.unNotified)
		qp.emit(trace.IRQSuppress, trace.NoCID, 0, uint64(qp.unNotified))
		qp.unNotified = 0
		if qp.coalesceEv.Armed() {
			qp.coalesceEv.Cancel()
		}
		qp.coalesceEv = sim.Timer{}
	}
	return out
}

// Ring-state accessors for invariant checking (property tests): the SQ
// head/tail and CQ head/tail indices and the device's current phase bit.
func (qp *QueuePair) SQHead() int     { return qp.sqHead }
func (qp *QueuePair) SQTail() int     { return qp.sqTail }
func (qp *QueuePair) CQHead() int     { return qp.cqHead }
func (qp *QueuePair) CQTail() int     { return qp.cqTail }
func (qp *QueuePair) PhaseBit() bool  { return qp.phase }
func (qp *QueuePair) CQOccupied() int { return qp.cqCount }

// HasCompletions reports whether unconsumed CQEs are pending (the check a
// shared-vector interrupt handler performs to identify the source, §4.2).
func (qp *QueuePair) HasCompletions() bool { return qp.cqCount > 0 }

// LastCID returns the command identifier assigned by the most recent
// Submit.
func (qp *QueuePair) LastCID() uint16 { return qp.nextCID }
