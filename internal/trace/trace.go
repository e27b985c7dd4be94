// Package trace is the always-on observability layer of the Aeolia
// reproduction: a lock-free, per-core ring-buffer event tracer that the
// device model (internal/nvme), the user-interrupt unit (internal/uintr,
// internal/aeokern), the driver (internal/aeodriver), and the file system
// (internal/aeofs) thread typed events through, so every I/O command's life —
// SQE prep, doorbell, device service, CQE post, interrupt raise/coalesce,
// UPID post, user-interrupt delivery, handler execution — is reconstructable
// after the fact.
//
// The tracer is installed on a sim.Engine (Engine.Tracer); every emit point
// pays exactly one nil check when tracing is off (Emit is a no-op on a nil
// *Tracer), so the hot path is unaffected in production runs — the qdsweep
// golden numbers are byte-identical with and without the package compiled in,
// because emitting consumes no virtual time.
//
// On top of the raw stream sit three consumers:
//
//   - Analyzer reconstructs per-CID causal chains and checks ordering
//     invariants (doorbell-before-device, exactly-once CQ consumption,
//     no delivery without a post, commit-after-journal-write);
//   - Histogram provides HDR-style log-bucketed per-stage latency
//     aggregation, rendered into internal/report tables;
//   - WriteChrome exports the stream as Chrome trace_event JSON
//     (chrome://tracing / Perfetto), one row per core plus one per queue.
package trace

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Type identifies a traced event.
type Type uint8

// The event taxonomy. One event is emitted per occurrence of each point in
// the I/O path; see the per-constant comments for the meaning of the Aux
// field.
const (
	Invalid Type = iota

	// SQEPrep: a command was written into an SQ slot (CID assigned, the
	// doorbell not yet rung). Aux = NLB.
	SQEPrep
	// DoorbellWrite: an SQ tail doorbell MMIO handed commands to the
	// device. Aux = burst size (commands covered by this write).
	DoorbellWrite
	// DeviceStart: the device began processing a command. Aux = NLB.
	DeviceStart
	// DeviceDone: the device finished a command (data movement complete).
	// Aux = NVMe status code.
	DeviceDone
	// CQEPost: a completion entry became visible in the CQ. Aux = status.
	CQEPost
	// CQEConsume: the host consumed a CQE (Poll). This is the
	// exactly-once consumption point. Aux = status.
	CQEConsume
	// IRQRaise: the CQ interrupt was actually raised. Aux = number of
	// completions the raise covers (1 when coalescing is off).
	IRQRaise
	// IRQCoalesce: a completion joined an armed aggregation instead of
	// raising its own interrupt. CID names the coalesced completion.
	IRQCoalesce
	// IRQSuppress: an armed aggregation was cancelled because the host
	// drained the CQ by polling first. Aux = completions suppressed.
	IRQSuppress
	// UPIDPost: a vector was posted into a UPID and its notification
	// evaluated (the remapped MSI-X write or SENDUIPI). Core = DestCPU,
	// Aux = user vector.
	UPIDPost
	// UINTRDeliver: a notification interrupt was recognized on a core
	// (PIR transferred into UIRR). Aux = number of pending vectors
	// recognized (0 for a spurious/duplicate delivery).
	UINTRDeliver
	// HandlerEnter / HandlerExit bracket one userspace handler execution
	// (in-schedule user interrupt, or the kernel-inserted frame of the
	// out-of-schedule path). Aux = delivered user vector, or
	// KernelPathAux for kernel-path drains.
	HandlerEnter
	HandlerExit
	// JournalWrite: one journal batch (header + images + commit record)
	// reached its on-disk region — emitted when the commit's vectored
	// write has returned. QID = journal region id, CID = journal instance
	// (one per mounted AeoFS, from NextChain), LBA = batch start block,
	// Aux = block images in the batch.
	JournalWrite
	// JournalCommit: a Sync's flush made its journal batches durable (the
	// commit point); one event per commit. CID = journal instance, Aux =
	// transactions committed.
	JournalCommit
	// PagecacheFlush: a file's dirty pages were written back as a
	// vectored batch. LBA = first run's start block, Aux = dirty pages.
	PagecacheFlush

	// NetSend: a netsim link accepted a message for transmission (one
	// event per transmission, so a fault-injected duplicate emits its
	// own NetSend). QID = link id, Aux = payload bytes.
	NetSend
	// NetDeliver: a message arrived at its destination endpoint.
	// QID = link id, Aux = payload bytes.
	NetDeliver
	// NetDrop: a message was lost in flight (seeded fault injection).
	// QID = link id, Aux = payload bytes.
	NetDrop
	// SvcReqRecv: the storage service dispatcher received a request.
	// QID = connection id, CID = request id, Aux = opcode.
	SvcReqRecv
	// SvcAdmit: admission control accepted the request into the service
	// queue. QID = connection id, CID = request id, Aux = tenant id.
	SvcAdmit
	// SvcShed: admission control shed the request (rate limit or backlog
	// bound). QID = connection id, CID = request id, Aux = tenant id.
	SvcShed
	// SvcFSOp: the admitted request's file-system/KV operation finished.
	// QID = connection id, CID = request id, Aux = bytes moved.
	SvcFSOp
	// SvcReply: the service sent the response for a request. QID =
	// connection id, CID = request id, Aux = wire status code.
	SvcReply

	// CacheBudget: a memory-bounded page cache announced its byte budget
	// (emitted once, before the first charged insertion). Aux = CacheBytes.
	CacheBudget
	// CacheInsert: pages were charged against the cache budget. LBA =
	// pages charged, Aux = resident bytes after the charge.
	CacheInsert
	// CacheEvict: the CLOCK hand evicted a resident page. LBA = the page's
	// backing block (^0 if unmapped), CID = 1 if the victim was dirty and
	// written back first, 0 if clean. Aux = resident bytes after eviction.
	CacheEvict
	// ReadaheadIssue: an asynchronous read-ahead batch was submitted
	// without waiting. LBA = first block of the batch, Aux = pages.
	ReadaheadIssue
	// ReadaheadHit: a demand read consumed a page brought in by
	// read-ahead. LBA = the page's backing block, Aux = page index.
	ReadaheadHit
	// ReadaheadWaste: a read-ahead page was evicted before any demand read
	// used it. LBA = the page's backing block, Aux = page index.
	ReadaheadWaste
	// WritebackRun: one contiguous dirty run reached the device (fsync or
	// background flusher). LBA = run start block, Aux = pages in the run.
	WritebackRun

	// UINTRVecDeliver: one classed user vector was delivered to the user
	// handler (emitted only when a priority ClassMap is installed on the
	// UPID). CID = recognition id (grouping the deliveries drained by one
	// poll of the PIR), LBA = user vector, Aux = priority class.
	UINTRVecDeliver
	// UINTRPreempt: a more urgent vector's delivery preempted an
	// in-progress lower-class handler (nested delivery). CID = nesting
	// depth at the preemption, LBA = the preempted handler's class,
	// Aux = class<<8 | vector of the preempting delivery.
	UINTRPreempt
	// UPIDClear: the kernel-path (out-of-schedule) fallback consumed a
	// UPID's posted bitmap without per-vector deliveries. Core = DestCPU,
	// Aux = the PIR bitmap taken.
	UPIDClear
	// SLOBound: an experiment announced the delivery-latency bound for a
	// priority class (emitted before load, once per bounded class).
	// CID = class, Aux = bound in nanoseconds.
	SLOBound
	// IRQBypass: an urgent-class completion bypassed the armed CQ
	// aggregation and raised its interrupt immediately. CID = the urgent
	// completion, Aux = completions covered by the immediate raise.
	IRQBypass

	// RaftLeader: a node won an election for a placement group. QID =
	// placement group, CID = node id, Aux = term.
	RaftLeader
	// RaftAccept: a node appended (stored durably) a raft entry. QID =
	// placement group, CID = node id, LBA = log index, Aux = entry term.
	RaftAccept
	// RaftCommit: a node advanced its commit index. QID = placement group,
	// CID = node id, LBA = new commit index.
	RaftCommit
	// RaftApply: a node applied a committed entry to its block store.
	// QID = placement group, CID = node id, LBA = log index, Aux = a hash
	// of the entry payload (identical across replicas or the logs diverged).
	RaftApply
	// RaftRestart: a node rebuilt a raft group from stable storage after a
	// crash (volatile state — commit/applied — resets). QID = placement
	// group, CID = node id.
	RaftRestart
	// ClusterPG: the monitor announced a placement group's membership
	// (emitted once per group before traffic). QID = placement group,
	// Aux = replication factor.
	ClusterPG
	// ClusterAck: the client received a write acknowledgement. QID =
	// placement group, CID = request id, LBA = block address, Aux =
	// raft index << 32 | payload hash (low 32 bits).
	ClusterAck
	// ClusterReadStart: the client issued a read (the linearizability
	// clock's start point). QID = placement group, CID = request id,
	// LBA = block address.
	ClusterReadStart
	// ClusterRead: the leader served a read at apply time. QID = placement
	// group, CID = request id, LBA = block address, Aux = the serving
	// entry's raft index << 32 | returned-data hash (low 32 bits).
	ClusterRead

	// MDSOp: a metadata shard completed one namespace operation. QID =
	// shard, LBA = ino concerned (0 if none), Aux = opcode.
	MDSOp
	// MDSLeaseGrant: an open granted a layout lease. QID = shard,
	// CID = lease id, LBA = ino.
	MDSLeaseGrant
	// MDSLeaseRelease: the holder released its lease (file close). QID =
	// shard, CID = lease id, LBA = ino.
	MDSLeaseRelease
	// MDSLeaseRevoke: the shard sent a revoke for a lease (unlink,
	// truncate, rename-over). QID = shard, CID = lease id, LBA = ino.
	MDSLeaseRevoke
	// MDSLeaseRevoked: the holder's revoke ack was processed — the lease is
	// dead; data I/O under it after this point is a violation. QID = shard,
	// CID = lease id, LBA = ino.
	MDSLeaseRevoked
	// MDSDataIO: a client issued a data read/write directly to a data node
	// under a layout lease. QID = data node index, CID = lease id,
	// LBA = ino, Aux = bytes.
	MDSDataIO
	// MDSRenameLink: a rename made the file visible at the destination
	// name. QID = shard owning the destination, CID = rename txn id,
	// LBA = ino.
	MDSRenameLink
	// MDSRenameUnlink: a rename removed the source name (after the
	// destination was linked — the "never invisible" order). QID = shard
	// owning the source, CID = rename txn id, LBA = ino.
	MDSRenameUnlink
	// MDSRenameDone: the rename completed and was acknowledged to the
	// client. QID = shard owning the source, CID = rename txn id,
	// LBA = ino.
	MDSRenameDone

	// CopyBudget: a datapath announced the copy budget for one traced path
	// (emitted once per path, before the path's first chain). QID = path id
	// (the Path* constants), Aux = the maximum data copies any one chain on
	// the path may perform.
	CopyBudget
	// BufCopy: one chain on a traced path copied payload bytes between
	// buffers (the thing the zero-copy datapath is eliminating). QID =
	// path id, CID = chain id (one per read/write operation), Aux = bytes.
	BufCopy
	// BufHandoff: a buffer moved between datapath stages without a copy.
	// QID = path id, CID = chain id, Aux = HandoffAux(from, to).
	BufHandoff

	numTypes
)

// The traced datapath identifiers for CopyBudget/BufCopy/BufHandoff events.
// Each names one end-to-end chain shape with its own copy budget.
const (
	// PathFSRead: aeofs buffered read — device DMA lands in the page
	// cache's own buffers, one copy page → user buffer.
	PathFSRead = 1
	// PathFSWrite: aeofs buffered write — one copy user buffer → page.
	PathFSWrite = 2
	// PathWriteback: dirty-page write-back — pages are submitted to the
	// device as a gather batch, zero copies.
	PathWriteback = 3
	// PathSvcRead: storage-service OpRead — the FS read's copy lands
	// directly in the reply frame's payload region, so the service edge
	// adds zero copies of its own (budget covers the whole chain).
	PathSvcRead = 4
)

// Stage names a datapath stage in a BufHandoff's Aux.
type Stage uint8

// The datapath stages a buffer moves between. The values are fixed: they
// are the Aux codes recorded traces and the analyzer's tests carry.
const (
	StageNet   Stage = 1 // a wire frame at the network edge
	StageSvc   Stage = 2 // the storage service (dispatcher or worker)
	StageCache Stage = 4 // the page cache (a resident page's data)
	StageDev   Stage = 5 // the nvme block store (DMA in progress)
)

// HandoffAux encodes a move from one stage to another as a BufHandoff Aux.
func HandoffAux(from, to Stage) uint64 { return uint64(from)<<8 | uint64(to) }

// NoCID marks an event that does not concern a specific command.
const NoCID = ^uint32(0)

// KernelPathAux is the HandlerEnter/Exit Aux value marking a kernel-path
// (out-of-schedule) completion drain rather than an in-schedule user
// interrupt handler.
const KernelPathAux = ^uint64(0)

var typeNames = [numTypes]string{
	Invalid:        "Invalid",
	SQEPrep:        "SQEPrep",
	DoorbellWrite:  "DoorbellWrite",
	DeviceStart:    "DeviceStart",
	DeviceDone:     "DeviceDone",
	CQEPost:        "CQEPost",
	CQEConsume:     "CQEConsume",
	IRQRaise:       "IRQRaise",
	IRQCoalesce:    "IRQCoalesce",
	IRQSuppress:    "IRQSuppress",
	UPIDPost:       "UPIDPost",
	UINTRDeliver:   "UINTRDeliver",
	HandlerEnter:   "HandlerEnter",
	HandlerExit:    "HandlerExit",
	JournalWrite:   "JournalWrite",
	JournalCommit:  "JournalCommit",
	PagecacheFlush: "PagecacheFlush",
	NetSend:        "NetSend",
	NetDeliver:     "NetDeliver",
	NetDrop:        "NetDrop",
	SvcReqRecv:     "SvcReqRecv",
	SvcAdmit:       "SvcAdmit",
	SvcShed:        "SvcShed",
	SvcFSOp:        "SvcFSOp",
	SvcReply:       "SvcReply",
	CacheBudget:    "CacheBudget",
	CacheInsert:    "CacheInsert",
	CacheEvict:     "CacheEvict",
	ReadaheadIssue: "ReadaheadIssue",
	ReadaheadHit:   "ReadaheadHit",
	ReadaheadWaste: "ReadaheadWaste",
	WritebackRun:   "WritebackRun",

	UINTRVecDeliver: "UINTRVecDeliver",
	UINTRPreempt:    "UINTRPreempt",
	UPIDClear:       "UPIDClear",
	SLOBound:        "SLOBound",
	IRQBypass:       "IRQBypass",

	RaftLeader:       "RaftLeader",
	RaftAccept:       "RaftAccept",
	RaftCommit:       "RaftCommit",
	RaftApply:        "RaftApply",
	RaftRestart:      "RaftRestart",
	ClusterPG:        "ClusterPG",
	ClusterAck:       "ClusterAck",
	ClusterReadStart: "ClusterReadStart",
	ClusterRead:      "ClusterRead",

	MDSOp:           "MDSOp",
	MDSLeaseGrant:   "MDSLeaseGrant",
	MDSLeaseRelease: "MDSLeaseRelease",
	MDSLeaseRevoke:  "MDSLeaseRevoke",
	MDSLeaseRevoked: "MDSLeaseRevoked",
	MDSDataIO:       "MDSDataIO",
	MDSRenameLink:   "MDSRenameLink",
	MDSRenameUnlink: "MDSRenameUnlink",
	MDSRenameDone:   "MDSRenameDone",

	CopyBudget: "CopyBudget",
	BufCopy:    "BufCopy",
	BufHandoff: "BufHandoff",
}

func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Event is one traced occurrence. Core, QID, and CID are -1/NoCID when the
// event does not concern a core, queue, or command; Aux is type-specific
// (see the Type constants).
type Event struct {
	Seq  uint64        // global emission order (1-based)
	At   time.Duration // virtual time of the occurrence
	Type Type
	Core int32
	QID  int32
	CID  uint32
	LBA  uint64
	Aux  uint64
}

func (e Event) String() string {
	return fmt.Sprintf("%v core=%d qid=%d cid=%d lba=%d aux=%d",
		e.Type, e.Core, e.QID, int64(int32(e.CID)), e.LBA, e.Aux)
}

// ring is one fixed-capacity overwriting event buffer. The cursor is a
// monotone count of events ever written; slot i holds event (n-1) mod cap.
type ring struct {
	buf []Event
	n   atomic.Uint64
	// Pad cursors of adjacent rings onto separate cache lines so per-core
	// emitters do not false-share.
	_ [48]byte
}

// Tracer collects events into per-core rings (plus one shared ring for
// device/global context). Emission is lock-free: one atomic add on the
// global sequence, one on the ring cursor. A nil *Tracer is a valid sink
// whose Emit is a no-op — the disabled fast path.
//
// Snapshots (Events, Dropped) must not race with emission; in the simulator
// this holds by construction because callers snapshot after Engine.Run
// returns (the engine serializes all emitting contexts).
type Tracer struct {
	seq   atomic.Uint64
	chain atomic.Uint32
	rings []ring
}

// NextChain allocates an id (a copy chain's, for BufCopy/BufHandoff CIDs, or
// a journal instance's, for JournalWrite/JournalCommit CIDs) unique across
// every emitter sharing this tracer — multiple FS mounts or service
// instances on one engine can never collide. Returns NoCID on a nil tracer
// so disabled-tracing paths can skip their emissions.
func (tr *Tracer) NextChain() uint32 {
	if tr == nil {
		return NoCID
	}
	return tr.chain.Add(1)
}

// New creates a tracer for a machine with the given core count; perRing is
// each ring's capacity in events (default 1<<16). Ring 0 receives events
// with no core context (device, journal); ring i+1 receives core i's.
func New(cores, perRing int) *Tracer {
	if cores < 0 {
		cores = 0
	}
	if perRing <= 0 {
		perRing = 1 << 16
	}
	tr := &Tracer{rings: make([]ring, cores+1)}
	for i := range tr.rings {
		tr.rings[i].buf = make([]Event, perRing)
	}
	return tr
}

// Emit records one event. Safe (and free) on a nil tracer.
func (tr *Tracer) Emit(at time.Duration, typ Type, core, qid int, cid uint32, lba, aux uint64) {
	if tr == nil {
		return
	}
	r := &tr.rings[0]
	if core >= 0 && core < len(tr.rings)-1 {
		r = &tr.rings[core+1]
	}
	seq := tr.seq.Add(1)
	i := (r.n.Add(1) - 1) % uint64(len(r.buf))
	r.buf[i] = Event{Seq: seq, At: at, Type: typ, Core: int32(core), QID: int32(qid), CID: cid, LBA: lba, Aux: aux}
}

// Len returns the total number of events emitted (including overwritten
// ones).
func (tr *Tracer) Len() uint64 {
	if tr == nil {
		return 0
	}
	return tr.seq.Load()
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (tr *Tracer) Dropped() uint64 {
	if tr == nil {
		return 0
	}
	var d uint64
	for i := range tr.rings {
		n := tr.rings[i].n.Load()
		if c := uint64(len(tr.rings[i].buf)); n > c {
			d += n - c
		}
	}
	return d
}

// Events returns every retained event in global emission order.
func (tr *Tracer) Events() []Event {
	if tr == nil {
		return nil
	}
	var out []Event
	for i := range tr.rings {
		r := &tr.rings[i]
		n := r.n.Load()
		if c := uint64(len(r.buf)); n > c {
			n = c
		}
		out = append(out, r.buf[:n]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Reset discards all retained events and restarts the sequence.
func (tr *Tracer) Reset() {
	if tr == nil {
		return
	}
	tr.seq.Store(0)
	tr.chain.Store(0)
	for i := range tr.rings {
		tr.rings[i].n.Store(0)
	}
}
