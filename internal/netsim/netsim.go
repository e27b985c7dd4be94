// Package netsim is a deterministic discrete-event network fabric on top of
// internal/sim: named endpoints connected by unidirectional links with
// configurable propagation latency, serialization bandwidth, bounded
// seeded jitter, and bounded FIFO transmit queues. Message delivery happens
// in virtual time; an endpoint's delivery hook lets a receiver wire arrival
// notification into the uintr path (internal/aeosvc posts a network
// completion into a UPID exactly like an NVMe completion), so the paper's
// interrupt-vs-poll story extends to the service edge.
//
// Loss and duplication are driven by an optional fault plan (an
// internal/faultinject Plan) via the sites "net:drop:<src>-><dst>" and
// "net:dup:<src>-><dst>", making network faults as reproducible as device
// faults.
//
// Everything is engine-single-threaded and seeded: two fabrics built the
// same way over engines fed the same events produce byte-identical message
// timelines.
//
// A frame costs the host nothing in the steady state. Each link recycles its
// in-flight records, whose departure and arrival callbacks are bound once;
// each inbox is a ring of Msg values; and each endpoint keeps a free list of
// frame buffers that its receivers hand back once they are done decoding
// (Frame, Release). A record or buffer that crosses lanes — taken by the
// sender, returned at or after the arrival — is recycled only in engine
// context (sim.Engine.InWindow false); inside a parallel window a frame
// allocates, as its event node does, so the lists need no lock.
package netsim

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"aeolia/internal/fifo"
	"aeolia/internal/mix"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

// Software costs of the host network stack (charged in task context, not on
// the wire): building/copying a frame on send, and retiring one on receive.
const (
	TxCost = 300 * time.Nanosecond
	RxCost = 200 * time.Nanosecond
)

// DefaultQueueDepth bounds a link's transmit queue when Config.QueueDepth
// is zero.
const DefaultQueueDepth = 64

// Errors reported by the fabric.
var (
	// ErrNoRoute: no link connects the source to the destination.
	ErrNoRoute = errors.New("netsim: no route")
	// ErrOverflow: the link's bounded transmit queue is full; the sender
	// sees backpressure instead of silent loss.
	ErrOverflow = errors.New("netsim: link queue overflow")
)

// Config shapes one link.
type Config struct {
	// Latency is the propagation delay added to every message.
	Latency time.Duration
	// BytesPerSec is the serialization bandwidth; 0 means infinite.
	BytesPerSec float64
	// Jitter is the maximum extra arrival delay; each message draws a
	// deterministic seeded value in [0, Jitter]. FIFO order is preserved.
	Jitter time.Duration
	// QueueDepth bounds messages accepted but not yet serialized onto the
	// wire (default DefaultQueueDepth). A full queue rejects sends with
	// ErrOverflow.
	QueueDepth int
}

// Msg is one delivered message. The *Msg a receive returns lives in the
// endpoint and is valid until that endpoint's next receive (TryRecv or Recv,
// whether or not it finds a message); the one a delivery hook is handed, for
// the duration of the hook. After that it reads as recycled: no payload, ids
// and times of -1. A caller that needs a field for longer copies it.
type Msg struct {
	Src, Dst     string
	SrcID, DstID int // endpoint ids (stable: fabric creation order)
	Payload      []byte
	SentAt       time.Duration
	DeliveredAt  time.Duration
	// Dup marks a fault-injected duplicate transmission.
	Dup bool
}

// recycled is what a Msg reads once its endpoint has received again.
var recycled = Msg{Src: "netsim: recycled Msg", Dst: "netsim: recycled Msg",
	SrcID: -1, DstID: -1, SentAt: -1, DeliveredAt: -1}

// Fabric owns the endpoints and links of one simulated network.
type Fabric struct {
	eng   *sim.Engine
	seed  uint64
	plan  FaultPlan
	eps   map[string]*Endpoint
	order []*Endpoint
	links []*Link
}

// New creates a fabric on the engine. seed drives per-message jitter (and
// composes with any fault plan's own seed).
func New(eng *sim.Engine, seed uint64) *Fabric {
	return &Fabric{eng: eng, seed: seed, eps: make(map[string]*Endpoint)}
}

// Engine returns the owning engine.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// FaultPlan decides, per firing of a named site, whether the fault there
// happens; *faultinject.Plan is the one implementation. netsim takes it as an
// interface so the fabric does not import the fault-injection package, whose
// crash matrix builds whole machines on top of it.
type FaultPlan interface {
	Fire(site string) bool
}

// UsePlan installs a non-nil fault-injection plan consulted per message on
// the sites "net:drop:<link>" and "net:dup:<link>".
func (f *Fabric) UsePlan(p FaultPlan) { f.plan = p }

// Endpoint returns (creating if needed) the named endpoint. IDs are
// assigned in creation order, so identically built fabrics agree on them.
func (f *Fabric) Endpoint(name string) *Endpoint {
	if ep := f.eps[name]; ep != nil {
		return ep
	}
	ep := &Endpoint{fab: f, name: name, id: len(f.order), out: make(map[string]*Link)}
	f.eps[name] = ep
	f.order = append(f.order, ep)
	return ep
}

// Connect creates the unidirectional link src→dst (creating endpoints as
// needed). Reconnecting an existing pair replaces its configuration.
func (f *Fabric) Connect(src, dst string, cfg Config) *Link {
	s, d := f.Endpoint(src), f.Endpoint(dst)
	site := src + "->" + dst
	l := &Link{fab: f, id: len(f.links), src: s, dst: d, cfg: cfg, site: site,
		siteHash: mix.FNV1a64(site), dropSite: "net:drop:" + site, dupSite: "net:dup:" + site}
	l.departFn = l.depart
	f.links = append(f.links, l)
	s.out[dst] = l
	return l
}

// Links returns every link in creation order.
func (f *Fabric) Links() []*Link { return f.links }

// Endpoint is one named attachment point: a FIFO inbox plus the outgoing
// links.
type Endpoint struct {
	fab  *Fabric
	name string
	id   int

	// home, when bound, is the core whose event lane owns this endpoint's
	// fabric events: departures book on the sender's home lane, arrivals
	// on the receiver's. Required for parallel-lane execution; unbound
	// endpoints fall back to unattributed (engine-lane) scheduling.
	home *sim.Core

	inbox fifo.Queue[Msg]
	// recv holds what the last two receives handed out: a receive copies
	// the oldest inbox message into one slot and poisons the other, which
	// the receive before it returned.
	recv [2]Msg
	cur  int
	// arrival is re-armed in place: a receiver waits, is released, and comes
	// back for the next arrival through Arrival, never through a pointer it
	// kept, so a wait allocates nothing.
	arrival sim.Completion
	deliver func(*Msg)
	out     map[string]*Link
	closed  bool

	// frames[c] holds free frame buffers of capacity at least 1<<c: frames
	// this endpoint sent that their receivers released. Only an endpoint
	// that has taken a Frame keeps any.
	frames [][][]byte
	draws  bool

	// Delivered counts messages that reached this endpoint's inbox.
	Delivered uint64
	// DroppedClosed counts messages (fault-injected duplicates included)
	// that arrived after Close and were discarded instead of delivered.
	DroppedClosed uint64
}

// Name returns the endpoint's name.
func (ep *Endpoint) Name() string { return ep.name }

// BindCore declares c the endpoint's home core: the fabric attributes this
// endpoint's events (and clock reads) to c's lane. Bind during setup,
// before traffic flows.
func (ep *Endpoint) BindCore(c *sim.Core) { ep.home = c }

// now reads virtual time in the endpoint's execution context.
func (ep *Endpoint) now() time.Duration {
	if ep.home != nil {
		return ep.home.Now()
	}
	return ep.fab.eng.Now()
}

// ID returns the endpoint's fabric-wide id (creation order).
func (ep *Endpoint) ID() int { return ep.id }

// Pending returns the number of queued undelivered messages.
func (ep *Endpoint) Pending() int { return ep.inbox.Len() }

// Close marks the endpoint closed: in-flight messages that arrive later —
// including fault-injected duplicates of messages consumed before the close
// — are dropped and accounted, never appended to the inbox, and never fire
// the delivery hook or arrival completion (a dup must not re-wake a receiver
// that already shut down). The inbox is cleared so no stale message can be
// popped after the fact.
func (ep *Endpoint) Close() {
	ep.closed = true
	ep.inbox.Reset()
}

// Reopen re-enables delivery after Close (a crashed node restarting on the
// same address). Messages dropped while closed stay dropped.
func (ep *Endpoint) Reopen() { ep.closed = false }

// SetOnDeliver installs a hook invoked in event context whenever a message
// is appended to the inbox. When a hook is installed the fabric does NOT
// fire the arrival completion itself: the hook's owner is responsible for
// waking the receiver (e.g. by posting a uintr notification whose handler
// calls SignalArrival) — mirroring how an NVMe CQE only wakes the waiter
// through its interrupt path.
func (ep *Endpoint) SetOnDeliver(fn func(*Msg)) { ep.deliver = fn }

// Arrival re-arms and returns the arrival completion: the next delivery
// (or SignalArrival call) fires it. Callers building custom wait loops use
// it with Env.BlockOn or Env.SpinWait; re-check Pending after re-arming and
// before blocking to avoid lost wakeups.
func (ep *Endpoint) Arrival() *sim.Completion {
	if ep.arrival.Done() {
		ep.arrival = sim.Completion{}
	}
	return &ep.arrival
}

// SignalArrival fires the armed arrival completion (if any): the receiver's
// interrupt handler calls this to hand the inbox to the waiting task.
func (ep *Endpoint) SignalArrival() {
	ep.arrival.FireAt(ep.now())
}

// Send transmits payload to the named destination over the connecting
// link. It charges TxCost of CPU and returns ErrNoRoute or ErrOverflow
// without transmitting on failure. On success the payload belongs to the
// fabric and then to the receiver: the sender must not write to it again.
func (ep *Endpoint) Send(env *sim.Env, dst string, payload []byte) error {
	l := ep.out[dst]
	if l == nil {
		return fmt.Errorf("%w: %s->%s", ErrNoRoute, ep.name, dst)
	}
	env.Exec(TxCost)
	return l.transmit(payload)
}

// TryRecv pops the oldest inbox message without blocking or charging CPU
// (interrupt-context safe). Returns nil when the inbox is empty. Either way
// the Msg the previous receive returned is recycled.
func (ep *Endpoint) TryRecv() *Msg {
	ep.recv[ep.cur] = recycled
	m, ok := ep.inbox.Pop()
	if !ok {
		return nil
	}
	ep.cur ^= 1
	ep.recv[ep.cur] = m
	return &ep.recv[ep.cur]
}

// Recv blocks the calling task until a message arrives, then pops and
// returns it, charging RxCost.
func (ep *Endpoint) Recv(env *sim.Env) *Msg {
	for ep.inbox.Len() == 0 {
		c := ep.Arrival()
		if ep.inbox.Len() > 0 {
			break
		}
		env.BlockOn(c)
	}
	env.Exec(RxCost)
	return ep.TryRecv()
}

// Frame buffers come in power-of-two capacities from 1<<minFrameClass to
// 1<<maxFrameClass bytes; a larger frame is allocated to size and never
// pooled. Each class keeps at most maxFreeFrames buffers.
const (
	minFrameClass = 6
	maxFrameClass = 17
	maxFreeFrames = 64
)

// Frame returns an empty buffer with room for n bytes, for a frame this
// endpoint is about to send: one that a receiver of an earlier frame
// released, or a new one. A protocol encodes into it only when the frame's
// receiver releases what it decodes; a frame the receiver keeps (stores,
// logs) is better allocated to size, since it never comes back.
func (ep *Endpoint) Frame(n int) []byte {
	ep.draws = true
	c := minFrameClass
	if n > 1<<minFrameClass {
		c = bits.Len(uint(n - 1))
	}
	if c > maxFrameClass {
		return make([]byte, 0, n)
	}
	if !ep.fab.eng.InWindow() && c < len(ep.frames) {
		if free := ep.frames[c]; len(free) > 0 {
			b := free[len(free)-1]
			free[len(free)-1] = nil
			ep.frames[c] = free[:len(free)-1]
			return b
		}
	}
	return make([]byte, 0, 1<<c)
}

// Release hands m's payload back to the endpoint that sent it, for a later
// Frame of that endpoint's. The receiver calls it once it is the payload's
// last reader: it has decoded the frame and keeps nothing that aliases it.
// m's payload reads nil afterwards, so releasing twice is harmless. The
// buffer is left to the collector instead when its sender never takes
// frames, and inside a parallel window, where the sender's free list belongs
// to the sender's lane.
func (ep *Endpoint) Release(m *Msg) {
	b := m.Payload
	m.Payload = nil
	if b == nil || m.SrcID < 0 || m.SrcID >= len(ep.fab.order) || ep.fab.eng.InWindow() {
		return
	}
	src := ep.fab.order[m.SrcID]
	c := bits.Len(uint(cap(b))) - 1
	if !src.draws || c < minFrameClass || c > maxFrameClass {
		return
	}
	for len(src.frames) <= c {
		src.frames = append(src.frames, nil)
	}
	if len(src.frames[c]) < maxFreeFrames {
		src.frames[c] = append(src.frames[c], b[:0])
	}
}

// Link is one unidirectional src→dst pipe.
type Link struct {
	fab      *Fabric
	id       int
	src      *Endpoint
	dst      *Endpoint
	cfg      Config
	site     string // "<src>-><dst>", names the fault-injection sites
	siteHash uint64 // mix.FNV1a64(site), the jitter stream's per-link key

	dropSite, dupSite string // the fault plan's site names for this link

	busyUntil  time.Duration // serialization horizon (last departure)
	lastArrive time.Duration // FIFO floor on arrival times
	queued     int           // accepted but not yet departed
	seq        uint64        // per-link transmission counter (jitter draws)
	down       bool          // partitioned: everything arriving is lost

	departFn func()    // l.depart, bound once
	free     []*flight // records not in flight (engine context only)

	// Stats.
	Sent, Delivered, Dropped, Duped, Overflows uint64
}

// flight is one frame on its link, from transmit to arrival. Records belong
// to the link and go back to its free list when they land; land is bound
// once per record, so booking an arrival allocates nothing.
type flight struct {
	l       *Link
	payload []byte
	sentAt  time.Duration
	dup     bool // a fault-injected duplicate
	drop    bool // the fault plan drops it on arrival
	// live is set from schedule to arrival. A record that lands while it
	// sits in the free list was kept, or scheduled twice, by someone: its
	// payload already belongs to another frame.
	live bool
	land func() // f.arrive
}

// Name returns "<src>-><dst>".
func (l *Link) Name() string { return l.site }

// SetDown partitions (true) or heals (false) the link. While down, every
// arrival — including messages already in flight — is dropped and accounted;
// senders still pay transmit costs, exactly like a cable cut. Downing only
// one direction of a pair models an asymmetric partition.
func (l *Link) SetDown(down bool) { l.down = down }

func (l *Link) depth() int {
	if l.cfg.QueueDepth > 0 {
		return l.cfg.QueueDepth
	}
	return DefaultQueueDepth
}

// txTime is the serialization delay of n bytes.
func (l *Link) txTime(n int) time.Duration {
	if l.cfg.BytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(n) / l.cfg.BytesPerSec * 1e9)
}

// jitter draws this transmission's deterministic extra delay.
func (l *Link) jitter() time.Duration {
	if l.cfg.Jitter <= 0 {
		return 0
	}
	h := mix.SplitMix64(l.fab.seed ^ l.siteHash ^ l.seq*0x9e3779b97f4a7c15)
	return time.Duration(h % uint64(l.cfg.Jitter+1))
}

// transmit accepts payload onto the link, consulting the fault plan for
// loss and duplication. Called in task context after the sender paid
// TxCost; all link mutation is atomic with respect to the engine.
func (l *Link) transmit(payload []byte) error {
	if l.queued >= l.depth() {
		l.Overflows++
		return fmt.Errorf("%w: %s (depth %d)", ErrOverflow, l.site, l.depth())
	}
	l.schedule(payload, false)
	if p := l.fab.plan; p != nil && p.Fire(l.dupSite) && l.queued < l.depth() {
		// The duplicate is its own transmission (and its own NetSend), so
		// the analyzer's sent >= delivered+dropped accounting holds. It is
		// its own copy, too: each receiver may release what it got.
		l.Duped++
		l.schedule(append([]byte(nil), payload...), true)
	}
	return nil
}

// schedule books one transmission: serialization on the wire, propagation,
// jitter (clamped to preserve per-link FIFO), and the delivery event. The
// departure event (releasing the sender-side queue slot) belongs to the
// sender's lane; the arrival event belongs to the receiver's lane and, in
// parallel-lane runs, is the cross-lane interaction the lookahead bound is
// derived from (arrive >= now + Latency).
func (l *Link) schedule(payload []byte, dup bool) {
	eng := l.fab.eng
	now := l.src.now()
	l.queued++
	l.seq++
	l.Sent++
	if tr := eng.Tracer; tr != nil {
		tr.Emit(now, trace.NetSend, -1, l.id, trace.NoCID, 0, uint64(len(payload)))
	}
	depart := now
	if l.busyUntil > depart {
		depart = l.busyUntil
	}
	depart += l.txTime(len(payload))
	l.busyUntil = depart
	arrive := depart + l.cfg.Latency + l.jitter()
	if arrive < l.lastArrive {
		arrive = l.lastArrive
	}
	l.lastArrive = arrive
	f := l.newFlight()
	f.payload, f.sentAt, f.dup, f.live = payload, now, dup, true
	f.drop = l.fab.plan != nil && l.fab.plan.Fire(l.dropSite)
	if src := l.src.home; src != nil {
		src.ScheduleAt(depart, l.departFn)
		src.ScheduleOn(l.dst.home, arrive, f.land)
		return
	}
	eng.ScheduleAt(depart, l.departFn)
	eng.ScheduleAt(arrive, f.land)
}

// depart releases the sender-side queue slot of the oldest frame on the
// wire (departures fire in transmit order).
func (l *Link) depart() { l.queued-- }

// newFlight takes a record from the free list, or allocates one.
func (l *Link) newFlight() *flight {
	if n := len(l.free); n > 0 && !l.fab.eng.InWindow() {
		f := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return f
	}
	f := &flight{l: l}
	f.land = f.arrive
	return f
}

// arrive is a record's arrival event (event context, on the destination's
// lane). The record is recycled before the message is delivered, because
// delivery can run the receiver, and what it sends next should find the
// record free.
func (f *flight) arrive() {
	if !f.live {
		panic("netsim: in-flight record landed after it was recycled")
	}
	l, payload, sentAt, dup, drop := f.l, f.payload, f.sentAt, f.dup, f.drop
	f.payload, f.live = nil, false
	if !l.fab.eng.InWindow() {
		l.free = append(l.free, f)
	}
	if drop || l.down {
		l.Dropped++
		if tr := l.fab.eng.Tracer; tr != nil {
			tr.Emit(l.dst.now(), trace.NetDrop, -1, l.id, trace.NoCID, 0, uint64(len(payload)))
		}
		return
	}
	l.deliverMsg(payload, sentAt, dup)
}

// deliverMsg lands one message at the destination endpoint (event context,
// on the destination's lane).
func (l *Link) deliverMsg(payload []byte, sentAt time.Duration, dup bool) {
	eng := l.fab.eng
	now := l.dst.now()
	if l.dst.closed {
		// The receiver is gone: account the message as dropped on the link
		// (it was sent but never delivered) and on the endpoint, and do not
		// wake anyone.
		l.Dropped++
		l.dst.DroppedClosed++
		if tr := eng.Tracer; tr != nil {
			tr.Emit(now, trace.NetDrop, -1, l.id, trace.NoCID, 0, uint64(len(payload)))
		}
		return
	}
	l.Delivered++
	if tr := eng.Tracer; tr != nil {
		tr.Emit(now, trace.NetDeliver, -1, l.id, trace.NoCID, 0, uint64(len(payload)))
	}
	d := l.dst
	m := d.inbox.Push(Msg{Src: l.src.name, Dst: d.name, SrcID: l.src.id, DstID: d.id,
		Payload: payload, SentAt: sentAt, DeliveredAt: now, Dup: dup})
	d.Delivered++
	if d.deliver != nil {
		d.deliver(m)
		return
	}
	d.SignalArrival()
}
