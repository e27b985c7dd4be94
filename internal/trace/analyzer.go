package trace

import (
	"fmt"
	"time"

	"aeolia/internal/report"
)

// Chain is the reconstructed life of one command (qid, cid): the per-stage
// timestamps the Analyzer extracted from the event stream. A stage that
// never happened is left at -1.
type Chain struct {
	QID int32
	CID uint32
	LBA uint64

	Prep        time.Duration // SQEPrep
	Doorbell    time.Duration // DoorbellWrite covering this command
	DeviceStart time.Duration
	DeviceDone  time.Duration
	Post        time.Duration // CQEPost
	Consume     time.Duration // CQEConsume

	// InHandler is true when the consume happened inside a
	// HandlerEnter/HandlerExit bracket (user-interrupt or kernel-path
	// delivery), as opposed to a synchronous poll or watchdog reap.
	InHandler bool
}

const noStage = time.Duration(-1)

// Complete reports whether every stage from prep through consume was
// observed, in causal order.
func (c *Chain) Complete() bool {
	return c.Prep >= 0 && c.Doorbell >= 0 && c.DeviceStart >= 0 &&
		c.DeviceDone >= 0 && c.Post >= 0 && c.Consume >= 0 &&
		c.Prep <= c.Doorbell && c.Doorbell <= c.DeviceStart &&
		c.DeviceStart <= c.DeviceDone && c.DeviceDone <= c.Post &&
		c.Post <= c.Consume
}

// Delivered reports whether the chain is complete AND its completion was
// consumed from inside an interrupt-delivery handler bracket — the full
// doorbell → device → CQE → post → deliver → handler path.
func (c *Chain) Delivered() bool { return c.Complete() && c.InHandler }

// SvcChain is the reconstructed life of one storage-service request
// (connection id, request id): received off the wire, admitted (or shed),
// executed against the file system, replied. A stage that never happened is
// left at -1.
type SvcChain struct {
	Conn int32  // connection id (netsim source endpoint)
	Req  uint32 // per-connection request id
	Op   uint64 // wire opcode (from SvcReqRecv's Aux)

	Recv  time.Duration // SvcReqRecv
	Admit time.Duration // SvcAdmit
	FSOp  time.Duration // SvcFSOp
	Reply time.Duration // SvcReply

	// Shed is true when admission control rejected the request; a shed
	// chain is complete with only Recv and Reply.
	Shed bool
}

// Complete reports whether the request's full causal chain was observed in
// order: recv → admit → fs-op → reply for admitted requests, recv → reply
// for shed ones.
func (c *SvcChain) Complete() bool {
	if c.Shed {
		return c.Recv >= 0 && c.Reply >= 0 && c.Recv <= c.Reply
	}
	return c.Recv >= 0 && c.Admit >= 0 && c.FSOp >= 0 && c.Reply >= 0 &&
		c.Recv <= c.Admit && c.Admit <= c.FSOp && c.FSOp <= c.Reply
}

// Violation is one invariant breach found in a trace.
type Violation struct {
	Seq  uint64 // offending event
	Rule string // e.g. "doorbell-before-device"
	Msg  string
}

func (v Violation) String() string { return fmt.Sprintf("seq=%d %s: %s", v.Seq, v.Rule, v.Msg) }

// Analyzer replays an event stream (in Seq order) and reconstructs causal
// state: per-command chains, per-queue held aggregations, handler nesting,
// journal write/commit ordering. The simulation engine serializes all
// emitting contexts, so a single global replay is sound.
type Analyzer struct {
	Chains     map[[2]int64]*Chain    // keyed by {qid, cid}
	SvcChains  map[[2]int64]*SvcChain // keyed by {connection id, request id}
	Violations []Violation

	// replay state
	doorbells    map[int32]time.Duration // last doorbell per qid
	preppedNoDB  map[int32][]*Chain      // per-qid chains prepped but not yet doorbelled
	undelivered  map[int32]int           // per-qid commands doorbelled but not device-started
	held         map[[2]int64]bool       // CIDs inside an armed (unraised) aggregation
	handlerDepth int
	postsPending map[int32]int  // per-core UPID posts not yet recognized
	journalDirty map[uint32]int // journal instance (CID) -> its batches written since its last commit
	netSent      map[int32]uint64
	netArrived   map[int32]uint64 // delivered + dropped, per link

	// page-cache replay state
	cacheBudget uint64                 // CacheBytes (0 until a CacheBudget event)
	ioInflight  map[[2]int64][2]uint64 // open SQEPrep→CQEConsume LBA intervals
	writtenBack [][2]uint64            // LBA intervals covered by WritebackRun

	// copy-accounting replay state
	copyBudget map[int32]uint64    // path id → announced copy budget
	copyCount  map[[2]int64]uint64 // (path id, chain id) → copies observed

	// priority-delivery replay state
	recogClass map[[2]int64]uint64      // (core, recognition id) → highest class delivered so far
	postMarks  map[[2]int64]postMark    // (core, vector) → earliest outstanding classed post
	sloBounds  map[uint32]time.Duration // class → delivery-latency bound (SLOBound)

	// replication replay state (cross-node causal chains)
	pgRF       map[int32]uint64                        // pg → replication factor (ClusterPG)
	raftCommit map[[2]int64]uint64                     // (pg, node) → last commit index this incarnation
	raftApply  map[[2]int64]uint64                     // (pg, node) → last applied index
	applyHash  map[[2]int64]uint64                     // (pg, index) → first observed apply hash
	acceptSets map[[2]int64]map[uint64]map[uint32]bool // (pg, index) → term → accepting nodes
	ackIdx     map[[2]int64]uint64                     // (pg, lba) → highest acked raft index
	readFloor  map[[2]int64]uint64                     // (pg, request id) → acked-index floor at ReadStart

	// metadata-service replay state
	mdsLease  map[uint32]*mdsLeaseState  // lease id → lifecycle
	mdsRename map[uint32]*mdsRenameState // rename txn id → progress
}

// mdsLeaseState tracks one layout lease's lifecycle through the trace.
type mdsLeaseState struct {
	granted    bool
	released   bool
	revokeSent bool
	revoked    bool
}

// mdsRenameState tracks one rename transaction's visibility events.
type mdsRenameState struct {
	link, unlink, done int
}

// postMark is one outstanding classed UPID post awaiting delivery.
type postMark struct {
	at    time.Duration
	class uint32
}

// key builds the chain map key; cids are unique per queue, not globally.
func key(qid int32, cid uint32) [2]int64 { return [2]int64{int64(qid), int64(cid)} }

// Analyze replays evs (sorted by Seq, as Tracer.Events returns them) and
// returns the populated analyzer.
func Analyze(evs []Event) *Analyzer {
	a := &Analyzer{
		Chains:       make(map[[2]int64]*Chain),
		SvcChains:    make(map[[2]int64]*SvcChain),
		doorbells:    make(map[int32]time.Duration),
		preppedNoDB:  make(map[int32][]*Chain),
		undelivered:  make(map[int32]int),
		held:         make(map[[2]int64]bool),
		postsPending: make(map[int32]int),
		netSent:      make(map[int32]uint64),
		netArrived:   make(map[int32]uint64),
		ioInflight:   make(map[[2]int64][2]uint64),
		copyBudget:   make(map[int32]uint64),
		copyCount:    make(map[[2]int64]uint64),
		recogClass:   make(map[[2]int64]uint64),
		postMarks:    make(map[[2]int64]postMark),
		sloBounds:    make(map[uint32]time.Duration),
		journalDirty: make(map[uint32]int),
		pgRF:         make(map[int32]uint64),
		raftCommit:   make(map[[2]int64]uint64),
		raftApply:    make(map[[2]int64]uint64),
		applyHash:    make(map[[2]int64]uint64),
		acceptSets:   make(map[[2]int64]map[uint64]map[uint32]bool),
		ackIdx:       make(map[[2]int64]uint64),
		readFloor:    make(map[[2]int64]uint64),
		mdsLease:     make(map[uint32]*mdsLeaseState),
		mdsRename:    make(map[uint32]*mdsRenameState),
	}
	for _, e := range evs {
		a.step(e)
	}
	if a.handlerDepth != 0 {
		a.violate(0, "handler-bracket", fmt.Sprintf("trace ends at handler depth %d", a.handlerDepth))
	}
	return a
}

func (a *Analyzer) violate(seq uint64, rule, format string, args ...any) {
	a.Violations = append(a.Violations, Violation{Seq: seq, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// chain returns (creating if needed) the chain for (qid, cid), initializing
// all stages to "not observed".
func (a *Analyzer) chain(qid int32, cid uint32, lba uint64) *Chain {
	k := key(qid, cid)
	c := a.Chains[k]
	if c == nil {
		c = &Chain{QID: qid, CID: cid, LBA: lba,
			Prep: noStage, Doorbell: noStage, DeviceStart: noStage,
			DeviceDone: noStage, Post: noStage, Consume: noStage}
		a.Chains[k] = c
	}
	return c
}

func (a *Analyzer) step(e Event) {
	switch e.Type {
	case SQEPrep:
		c := a.chain(e.QID, e.CID, e.LBA)
		if c.Prep >= 0 {
			a.violate(e.Seq, "cid-reuse", "qid=%d cid=%d prepped twice without consume", e.QID, e.CID)
		}
		c.Prep = e.At
		a.preppedNoDB[e.QID] = append(a.preppedNoDB[e.QID], c)
		nlb := e.Aux
		if nlb == 0 {
			nlb = 1
		}
		a.ioInflight[key(e.QID, e.CID)] = [2]uint64{e.LBA, e.LBA + nlb}

	case DoorbellWrite:
		a.doorbells[e.QID] = e.At
		a.undelivered[e.QID] += int(e.Aux)
		// Stamp the doorbell onto every chain prepped on this queue since
		// the previous doorbell write.
		for _, c := range a.preppedNoDB[e.QID] {
			c.Doorbell = e.At
		}
		a.preppedNoDB[e.QID] = a.preppedNoDB[e.QID][:0]

	case DeviceStart:
		c := a.chain(e.QID, e.CID, e.LBA)
		if c.Doorbell < 0 {
			a.violate(e.Seq, "doorbell-before-device",
				"qid=%d cid=%d started on device without a covering doorbell write", e.QID, e.CID)
		}
		if a.undelivered[e.QID] <= 0 {
			a.violate(e.Seq, "doorbell-before-device",
				"qid=%d device consumed more SQEs than doorbells handed over", e.QID)
		} else {
			a.undelivered[e.QID]--
		}
		c.DeviceStart = e.At

	case DeviceDone:
		c := a.chain(e.QID, e.CID, e.LBA)
		c.DeviceDone = e.At

	case CQEPost:
		c := a.chain(e.QID, e.CID, e.LBA)
		if c.Post >= 0 {
			a.violate(e.Seq, "cqe-exactly-once", "qid=%d cid=%d posted twice", e.QID, e.CID)
		}
		c.Post = e.At

	case CQEConsume:
		c := a.chain(e.QID, e.CID, e.LBA)
		if c.Post < 0 {
			a.violate(e.Seq, "cqe-exactly-once", "qid=%d cid=%d consumed without a post", e.QID, e.CID)
		}
		if c.Consume >= 0 {
			a.violate(e.Seq, "cqe-exactly-once", "qid=%d cid=%d consumed twice", e.QID, e.CID)
		}
		k := key(e.QID, e.CID)
		if a.held[k] && a.handlerDepth == 0 {
			// The completion joined an armed aggregation (no interrupt
			// raised yet) and something consumed it outside any delivery
			// handler: a recovery path reaping completions the device
			// still intends to signal — the PR 2 watchdog bug.
			a.violate(e.Seq, "consume-while-held",
				"qid=%d cid=%d reaped outside a handler while its aggregation was still armed", e.QID, e.CID)
		}
		delete(a.held, k)
		delete(a.ioInflight, k)
		c.Consume = e.At
		c.InHandler = a.handlerDepth > 0

	case IRQRaise:
		// The aggregation (if any) fired: nothing on this queue is held.
		a.releaseQueue(e.QID)

	case IRQCoalesce:
		a.held[key(e.QID, e.CID)] = true

	case IRQSuppress:
		// Host drained the CQ by polling; the armed aggregation is
		// cancelled and its completions are legitimately consumed.
		a.releaseQueue(e.QID)

	case UPIDPost:
		a.postsPending[e.Core]++
		// A classed post (LBA = class+1; 0 for unclassed UPIDs) starts the
		// delivery-latency clock for its vector unless one is already
		// ticking — ON-bit coalescing means the earliest post bounds them
		// all.
		if e.LBA > 0 {
			k := key(e.Core, uint32(e.Aux))
			if _, ok := a.postMarks[k]; !ok {
				a.postMarks[k] = postMark{at: e.At, class: uint32(e.LBA - 1)}
			}
		}

	case UINTRDeliver:
		if e.Aux > 0 && a.postsPending[e.Core] <= 0 {
			a.violate(e.Seq, "delivery-without-post",
				"core=%d recognized %d vector(s) with no outstanding UPID post", e.Core, e.Aux)
		}
		// One recognition consumes all outstanding posts for the core
		// (PIR is transferred wholesale; ON-bit coalescing means several
		// posts can collapse into one delivery).
		a.postsPending[e.Core] = 0

	case UINTRVecDeliver:
		// Within one recognition (one poll of the PIR), deliveries must be
		// ordered strictly highest-class-first: a pending higher-class
		// (numerically lower) vector delivered after a lower-class one was
		// passed over in the drain — a priority inversion. Nested
		// (preemptive) deliveries carry a fresh recognition id and so form
		// their own group.
		gk := key(e.Core, e.CID)
		if prev, ok := a.recogClass[gk]; ok && e.Aux < prev {
			a.violate(e.Seq, "priority-order",
				"core=%d recognition=%d delivered class-%d vector %d after a class-%d delivery in the same poll",
				e.Core, e.CID, e.Aux, e.LBA, prev)
		} else if !ok || e.Aux > prev {
			a.recogClass[gk] = e.Aux
		}
		vk := key(e.Core, uint32(e.LBA))
		if m, ok := a.postMarks[vk]; ok {
			delete(a.postMarks, vk)
			if bound, bok := a.sloBounds[uint32(e.Aux)]; bok && e.At-m.at > bound {
				a.violate(e.Seq, "slo-delivery-bound",
					"core=%d vector=%d class=%d delivered %v after its post, over the %v bound",
					e.Core, e.LBA, e.Aux, e.At-m.at, bound)
			}
		}

	case UINTRPreempt:
		if a.handlerDepth == 0 {
			a.violate(e.Seq, "preempt-outside-handler",
				"core=%d preemptive delivery (class=%d vector=%d) with no handler in progress",
				e.Core, e.Aux>>8, e.Aux&0xff)
		}

	case UPIDClear:
		// The kernel path consumed the posted bitmap wholesale; its vectors
		// are no longer awaiting an in-schedule delivery.
		for v := uint32(0); v < 64; v++ {
			if e.Aux&(uint64(1)<<v) != 0 {
				delete(a.postMarks, key(e.Core, v))
			}
		}

	case SLOBound:
		a.sloBounds[e.CID] = time.Duration(e.Aux)

	case IRQBypass:
		// Informational: the immediate IRQRaise that follows releases any
		// held aggregation on the queue.

	case HandlerEnter:
		a.handlerDepth++

	case HandlerExit:
		a.handlerDepth--
		if a.handlerDepth < 0 {
			a.violate(e.Seq, "handler-bracket", "HandlerExit without matching HandlerEnter")
			a.handlerDepth = 0
		}

	case JournalWrite:
		a.journalDirty[e.CID]++

	case JournalCommit:
		// Keyed by journal instance: another file system's batches on
		// the same engine are no evidence that this one wrote any.
		if a.journalDirty[e.CID] == 0 {
			a.violate(e.Seq, "commit-after-journal-write",
				"journal %d: commit of %d txn(s) with no batch of its own written since its last commit", int32(e.CID), e.Aux)
		}
		delete(a.journalDirty, e.CID)

	case PagecacheFlush:
		// ordering relative to journal is checked by aeofs crash tests;
		// nothing to track here.

	case CacheBudget:
		a.cacheBudget = e.Aux

	case CacheInsert:
		if a.cacheBudget > 0 && e.Aux > a.cacheBudget {
			a.violate(e.Seq, "cache-budget",
				"%d resident bytes after insert of %d page(s) exceeds budget %d",
				e.Aux, e.LBA, a.cacheBudget)
		}

	case CacheEvict:
		if e.LBA == ^uint64(0) {
			break
		}
		if e.CID == 0 {
			// A clean page must not be evicted while a command on its
			// block is still in flight: the eventual CQE would fill a
			// buffer the cache no longer owns, and a re-read of the page
			// could observe stale contents.
			for k, iv := range a.ioInflight {
				if e.LBA >= iv[0] && e.LBA < iv[1] {
					a.violate(e.Seq, "evict-while-inflight",
						"clean evict of lba=%d inside in-flight command qid=%d cid=%d [%d,%d)",
						e.LBA, k[0], k[1], iv[0], iv[1])
				}
			}
		} else {
			// A dirty victim must have been written back first.
			covered := false
			for _, iv := range a.writtenBack {
				if e.LBA >= iv[0] && e.LBA < iv[1] {
					covered = true
					break
				}
			}
			if !covered {
				a.violate(e.Seq, "dirty-evict-without-writeback",
					"dirty evict of lba=%d with no prior write-back run covering it", e.LBA)
			}
		}

	case WritebackRun:
		n := e.Aux
		if n == 0 {
			n = 1
		}
		a.writtenBack = append(a.writtenBack, [2]uint64{e.LBA, e.LBA + n})

	case CopyBudget:
		if prev, ok := a.copyBudget[e.QID]; ok && prev != e.Aux {
			a.violate(e.Seq, "copy-budget",
				"path=%d copy budget re-announced as %d (was %d)", e.QID, e.Aux, prev)
		}
		a.copyBudget[e.QID] = e.Aux

	case BufCopy:
		budget, ok := a.copyBudget[e.QID]
		if !ok {
			a.violate(e.Seq, "copy-budget",
				"path=%d chain=%d copied %d byte(s) with no announced copy budget",
				e.QID, e.CID, e.Aux)
			break
		}
		k := key(e.QID, e.CID)
		a.copyCount[k]++
		if a.copyCount[k] > budget {
			a.violate(e.Seq, "copy-budget",
				"path=%d chain=%d performed copy %d of %d byte(s), over the %d-copy budget",
				e.QID, e.CID, a.copyCount[k], e.Aux, budget)
		}

	case BufHandoff:
		// Informational: ownership moved without a copy. The per-chain copy
		// counter is deliberately untouched.

	case NetSend:
		a.netSent[e.QID]++

	case NetDeliver, NetDrop:
		a.netArrived[e.QID]++
		if a.netArrived[e.QID] > a.netSent[e.QID] {
			a.violate(e.Seq, "net-deliver-without-send",
				"link=%d delivered/dropped %d message(s) with only %d sent",
				e.QID, a.netArrived[e.QID], a.netSent[e.QID])
		}

	case SvcReqRecv:
		k := key(e.QID, e.CID)
		if a.SvcChains[k] != nil {
			a.violate(e.Seq, "svc-reqid-reuse",
				"conn=%d req=%d received twice", e.QID, e.CID)
			break
		}
		c := a.svcChain(e.QID, e.CID)
		c.Recv = e.At
		c.Op = e.Aux

	case SvcAdmit:
		c := a.svcChain(e.QID, e.CID)
		if c.Recv < 0 {
			a.violate(e.Seq, "svc-causal-order",
				"conn=%d req=%d admitted before being received", e.QID, e.CID)
		}
		if c.Shed {
			a.violate(e.Seq, "svc-admit-or-shed",
				"conn=%d req=%d admitted after being shed", e.QID, e.CID)
		}
		if c.Admit >= 0 {
			a.violate(e.Seq, "svc-admit-or-shed",
				"conn=%d req=%d admitted twice", e.QID, e.CID)
		}
		c.Admit = e.At

	case SvcShed:
		c := a.svcChain(e.QID, e.CID)
		if c.Recv < 0 {
			a.violate(e.Seq, "svc-causal-order",
				"conn=%d req=%d shed before being received", e.QID, e.CID)
		}
		if c.Admit >= 0 {
			a.violate(e.Seq, "svc-admit-or-shed",
				"conn=%d req=%d shed after being admitted", e.QID, e.CID)
		}
		c.Shed = true

	case SvcFSOp:
		c := a.svcChain(e.QID, e.CID)
		if c.Admit < 0 {
			a.violate(e.Seq, "svc-causal-order",
				"conn=%d req=%d executed an fs op without admission", e.QID, e.CID)
		}
		c.FSOp = e.At

	case SvcReply:
		c := a.svcChain(e.QID, e.CID)
		if c.Recv < 0 {
			a.violate(e.Seq, "svc-causal-order",
				"conn=%d req=%d replied without being received", e.QID, e.CID)
		}
		if c.Reply >= 0 {
			a.violate(e.Seq, "svc-reply-exactly-once",
				"conn=%d req=%d replied twice", e.QID, e.CID)
		}
		c.Reply = e.At

	case ClusterPG:
		a.pgRF[e.QID] = e.Aux

	case RaftLeader:
		// Informational anchor for the cross-node chain; term safety is
		// enforced inside internal/raft.

	case RaftRestart:
		// Volatile raft state (commit/applied) legitimately resets across a
		// crash; the monotonicity floors restart with the incarnation.
		nk := key(e.QID, e.CID)
		delete(a.raftCommit, nk)
		delete(a.raftApply, nk)

	case RaftAccept:
		ik := [2]int64{int64(e.QID), int64(e.LBA)}
		terms := a.acceptSets[ik]
		if terms == nil {
			terms = make(map[uint64]map[uint32]bool)
			a.acceptSets[ik] = terms
		}
		if terms[e.Aux] == nil {
			terms[e.Aux] = make(map[uint32]bool)
		}
		terms[e.Aux][e.CID] = true

	case RaftCommit:
		nk := key(e.QID, e.CID)
		if prev, ok := a.raftCommit[nk]; ok && e.LBA < prev {
			a.violate(e.Seq, "commit-monotonic",
				"pg=%d node=%d commit index regressed %d -> %d without a restart",
				e.QID, e.CID, prev, e.LBA)
		}
		a.raftCommit[nk] = e.LBA

	case RaftApply:
		nk := key(e.QID, e.CID)
		if e.LBA > a.raftCommit[nk] {
			a.violate(e.Seq, "apply-beyond-commit",
				"pg=%d node=%d applied index %d above its commit index %d",
				e.QID, e.CID, e.LBA, a.raftCommit[nk])
		}
		if prev, ok := a.raftApply[nk]; ok && e.LBA <= prev {
			a.violate(e.Seq, "apply-order",
				"pg=%d node=%d applied index %d after index %d", e.QID, e.CID, e.LBA, prev)
		}
		a.raftApply[nk] = e.LBA
		ik := [2]int64{int64(e.QID), int64(e.LBA)}
		if h, ok := a.applyHash[ik]; ok {
			if h != e.Aux {
				a.violate(e.Seq, "divergent-commit",
					"pg=%d index=%d applied with hash %#x on node %d but %#x elsewhere",
					e.QID, e.LBA, e.Aux, e.CID, h)
			}
		} else {
			a.applyHash[ik] = e.Aux
		}

	case ClusterAck:
		idx := e.Aux >> 32
		// The ack must be backed by a quorum of durable accepts of one term
		// at that index.
		rf := a.pgRF[e.QID]
		if rf == 0 {
			rf = 1
		}
		quorum := int(rf/2 + 1)
		backed := false
		for _, nodes := range a.acceptSets[[2]int64{int64(e.QID), int64(idx)}] {
			if len(nodes) >= quorum {
				backed = true
				break
			}
		}
		if !backed {
			a.violate(e.Seq, "ack-before-quorum",
				"pg=%d req=%d acked write at index %d without a quorum (%d/%d) of accepts",
				e.QID, e.CID, idx, quorum, rf)
		}
		lk := [2]int64{int64(e.QID), int64(e.LBA)}
		if idx > a.ackIdx[lk] {
			a.ackIdx[lk] = idx
		}

	case ClusterReadStart:
		// Freeze the linearizability floor: the newest write already acked
		// for this block when the read was issued.
		a.readFloor[key(e.QID, e.CID)] = a.ackIdx[[2]int64{int64(e.QID), int64(e.LBA)}]

	case ClusterRead:
		// A retried read may be served more than once (each timed-out
		// attempt that still committed serves it again); every serve must
		// clear the floor frozen at the single ReadStart.
		rk := key(e.QID, e.CID)
		floor, ok := a.readFloor[rk]
		if !ok {
			a.violate(e.Seq, "read-chain",
				"pg=%d req=%d read served without a ClusterReadStart", e.QID, e.CID)
			break
		}
		if idx := e.Aux >> 32; idx < floor {
			a.violate(e.Seq, "stale-read-after-commit",
				"pg=%d req=%d lba=%d read served at index %d below the acked-write floor %d",
				e.QID, e.CID, e.LBA, idx, floor)
		}

	case MDSOp:
		// Informational per-shard op marker; throughput is derived from it
		// by the experiments, no invariant attaches here.

	case MDSLeaseGrant:
		if a.mdsLease[e.CID] != nil {
			a.violate(e.Seq, "lease-grant-once",
				"shard=%d lease=%d granted twice", e.QID, e.CID)
			break
		}
		a.mdsLease[e.CID] = &mdsLeaseState{granted: true}

	case MDSLeaseRelease:
		ls := a.mdsLease[e.CID]
		if ls == nil {
			a.violate(e.Seq, "lease-lifecycle",
				"shard=%d lease=%d released without a grant", e.QID, e.CID)
			break
		}
		if ls.released || ls.revoked {
			a.violate(e.Seq, "lease-lifecycle",
				"shard=%d lease=%d released after it was already dead", e.QID, e.CID)
		}
		ls.released = true

	case MDSLeaseRevoke:
		ls := a.mdsLease[e.CID]
		if ls == nil {
			a.violate(e.Seq, "lease-lifecycle",
				"shard=%d revoke sent for unknown lease %d", e.QID, e.CID)
			break
		}
		ls.revokeSent = true

	case MDSLeaseRevoked:
		ls := a.mdsLease[e.CID]
		if ls == nil || !ls.revokeSent {
			a.violate(e.Seq, "lease-lifecycle",
				"shard=%d lease=%d revoke completed without a revoke being sent", e.QID, e.CID)
			break
		}
		if ls.revoked {
			a.violate(e.Seq, "lease-lifecycle",
				"shard=%d lease=%d revoke completed twice", e.QID, e.CID)
		}
		ls.revoked = true

	case MDSDataIO:
		// The direct-to-data invariant: every data I/O cites the layout
		// lease it runs under, and that lease must be alive — granted, not
		// released, and not past revoke completion. (I/O between a revoke
		// being sent and its ack is legal: the holder has not seen the
		// revoke yet.)
		ls := a.mdsLease[e.CID]
		switch {
		case ls == nil:
			a.violate(e.Seq, "data-io-without-lease",
				"node=%d ino=%d data i/o under unknown lease %d", e.QID, e.LBA, e.CID)
		case ls.released:
			a.violate(e.Seq, "data-io-without-lease",
				"node=%d ino=%d data i/o under released lease %d", e.QID, e.LBA, e.CID)
		case ls.revoked:
			a.violate(e.Seq, "data-io-without-lease",
				"node=%d ino=%d data i/o under lease %d after its revoke completed", e.QID, e.LBA, e.CID)
		}

	case MDSRenameLink:
		rs := a.mdsRenameTxn(e.CID)
		rs.link++
		if rs.link > 1 {
			a.violate(e.Seq, "rename-visibility",
				"txn=%d destination linked twice", e.CID)
		}

	case MDSRenameUnlink:
		rs := a.mdsRenameTxn(e.CID)
		rs.unlink++
		if rs.link == 0 {
			a.violate(e.Seq, "rename-visibility",
				"txn=%d source unlinked before the destination was linked (file invisible)", e.CID)
		}
		if rs.unlink > 1 {
			a.violate(e.Seq, "rename-visibility",
				"txn=%d source unlinked twice", e.CID)
		}

	case MDSRenameDone:
		rs := a.mdsRenameTxn(e.CID)
		rs.done++
		if rs.done > 1 {
			a.violate(e.Seq, "rename-visibility",
				"txn=%d completed twice", e.CID)
		} else if rs.link != 1 || rs.unlink != 1 {
			a.violate(e.Seq, "rename-visibility",
				"txn=%d completed with link=%d unlink=%d (want exactly one of each)",
				e.CID, rs.link, rs.unlink)
		}
	}
}

// mdsRenameTxn returns (creating if needed) the rename-transaction state.
func (a *Analyzer) mdsRenameTxn(txn uint32) *mdsRenameState {
	rs := a.mdsRename[txn]
	if rs == nil {
		rs = &mdsRenameState{}
		a.mdsRename[txn] = rs
	}
	return rs
}

// svcChain returns (creating if needed) the service chain for
// (connection, request id), initializing all stages to "not observed".
func (a *Analyzer) svcChain(conn int32, req uint32) *SvcChain {
	k := key(conn, req)
	c := a.SvcChains[k]
	if c == nil {
		c = &SvcChain{Conn: conn, Req: req,
			Recv: noStage, Admit: noStage, FSOp: noStage, Reply: noStage}
		a.SvcChains[k] = c
	}
	return c
}

// releaseQueue marks every held CID on qid as released (its IRQ fired or
// was suppressed by a poll).
func (a *Analyzer) releaseQueue(qid int32) {
	for k := range a.held {
		if k[0] == int64(qid) {
			delete(a.held, k)
		}
	}
}

// CopyStats summarizes the copy-accounting replay: how many chains copied at
// least once, the total copies across all chains, and the largest per-chain
// copy count observed.
func (a *Analyzer) CopyStats() (chains int, copies, maxPerChain uint64) {
	for _, n := range a.copyCount {
		chains++
		copies += n
		if n > maxPerChain {
			maxPerChain = n
		}
	}
	return chains, copies, maxPerChain
}

// Stage latency names, in pipeline order.
const (
	StagePrepToDoorbell = "prep→doorbell"
	StageDoorbellToDev  = "doorbell→device"
	StageDevice         = "device"
	StagePostToConsume  = "post→consume"
	StageEndToEnd       = "end-to-end"
)

// StageHistograms buckets per-stage latencies across all complete chains.
func (a *Analyzer) StageHistograms() map[string]*Histogram {
	hs := map[string]*Histogram{
		StagePrepToDoorbell: {},
		StageDoorbellToDev:  {},
		StageDevice:         {},
		StagePostToConsume:  {},
		StageEndToEnd:       {},
	}
	for _, c := range a.Chains {
		if !c.Complete() {
			continue
		}
		hs[StagePrepToDoorbell].Record(c.Doorbell - c.Prep)
		hs[StageDoorbellToDev].Record(c.DeviceStart - c.Doorbell)
		hs[StageDevice].Record(c.DeviceDone - c.DeviceStart)
		hs[StagePostToConsume].Record(c.Consume - c.Post)
		hs[StageEndToEnd].Record(c.Consume - c.Prep)
	}
	return hs
}

// Service stage latency names, in pipeline order.
const (
	SvcStageRecvToAdmit = "recv→admit"
	SvcStageAdmitToFSOp = "admit→fsop"
	SvcStageFSOpToReply = "fsop→reply"
	SvcStageEndToEnd    = "svc end-to-end"
)

// SvcStageHistograms buckets per-stage latencies across all complete,
// admitted service chains (shed chains carry no fs-op stage and would skew
// the service-time stages; their end-to-end cost shows up in the client's
// retry latency instead).
func (a *Analyzer) SvcStageHistograms() map[string]*Histogram {
	hs := map[string]*Histogram{
		SvcStageRecvToAdmit: {},
		SvcStageAdmitToFSOp: {},
		SvcStageFSOpToReply: {},
		SvcStageEndToEnd:    {},
	}
	for _, c := range a.SvcChains {
		if c.Shed || !c.Complete() {
			continue
		}
		hs[SvcStageRecvToAdmit].Record(c.Admit - c.Recv)
		hs[SvcStageAdmitToFSOp].Record(c.FSOp - c.Admit)
		hs[SvcStageFSOpToReply].Record(c.Reply - c.FSOp)
		hs[SvcStageEndToEnd].Record(c.Reply - c.Recv)
	}
	return hs
}

// SvcLatencyTable renders the per-stage service histograms as a report
// table (p50/p90/p99/max in microseconds).
func (a *Analyzer) SvcLatencyTable() *report.Table {
	t := &report.Table{
		ID:      "svclat",
		Title:   "Per-stage service latency (traced)",
		Columns: []string{"stage", "count", "p50_us", "p90_us", "p99_us", "max_us"},
	}
	hs := a.SvcStageHistograms()
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, stage := range []string{SvcStageRecvToAdmit, SvcStageAdmitToFSOp, SvcStageFSOpToReply, SvcStageEndToEnd} {
		h := hs[stage]
		t.AddRowf(stage, h.Count(), us(h.Percentile(50)), us(h.Percentile(90)), us(h.Percentile(99)), us(h.Max()))
	}
	return t
}

// LatencyTable renders the per-stage histograms as a report table
// (p50/p90/p99/max in microseconds).
func (a *Analyzer) LatencyTable() *report.Table {
	t := &report.Table{
		Title:   "Per-stage latency (traced)",
		Columns: []string{"stage", "count", "p50_us", "p90_us", "p99_us", "max_us"},
	}
	hs := a.StageHistograms()
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, stage := range []string{StagePrepToDoorbell, StageDoorbellToDev, StageDevice, StagePostToConsume, StageEndToEnd} {
		h := hs[stage]
		t.AddRowf(stage, h.Count(), us(h.Percentile(50)), us(h.Percentile(90)), us(h.Percentile(99)), us(h.Max()))
	}
	return t
}
