// Package netsim is a deterministic discrete-event network fabric on top of
// internal/sim: named endpoints connected by unidirectional links with
// configurable propagation latency, serialization bandwidth, bounded
// seeded jitter, and bounded FIFO transmit queues. Message delivery happens
// in virtual time; an endpoint's delivery hook lets a receiver wire arrival
// notification into the uintr path (internal/aeosvc posts a network
// completion into a UPID exactly like an NVMe completion), so the paper's
// interrupt-vs-poll story extends to the service edge.
//
// Loss and duplication are driven by an optional internal/faultinject plan
// via the sites "net:drop:<src>-><dst>" and "net:dup:<src>-><dst>", making
// network faults as reproducible as device faults.
//
// Everything is engine-single-threaded and seeded: two fabrics built the
// same way over engines fed the same events produce byte-identical message
// timelines.
package netsim

import (
	"errors"
	"fmt"
	"time"

	"aeolia/internal/faultinject"
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

// Msg is one delivered message.
type Msg struct {
	Src, Dst     string
	SrcID, DstID int // endpoint ids (stable: fabric creation order)
	Payload      []byte
	SentAt       time.Duration
	DeliveredAt  time.Duration
	// Dup marks a fault-injected duplicate transmission.
	Dup bool
}

// Fabric owns the endpoints and links of one simulated network.
type Fabric struct {
	eng   *sim.Engine
	seed  uint64
	plan  *faultinject.Plan
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

// UsePlan installs a fault-injection plan consulted per message on the
// sites "net:drop:<link>" and "net:dup:<link>".
func (f *Fabric) UsePlan(p *faultinject.Plan) { f.plan = p }

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
	l := &Link{fab: f, id: len(f.links), src: s, dst: d, cfg: cfg,
		site: src + "->" + dst}
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

	inbox []*Msg
	// arrival is re-armed in place: a receiver waits, is released, and comes
	// back for the next arrival through Arrival, never through a pointer it
	// kept, so a wait allocates nothing.
	arrival sim.Completion
	deliver func(*Msg)
	out     map[string]*Link
	closed  bool

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
func (ep *Endpoint) Pending() int { return len(ep.inbox) }

// Close marks the endpoint closed: in-flight messages that arrive later —
// including fault-injected duplicates of messages consumed before the close
// — are dropped and accounted, never appended to the inbox, and never fire
// the delivery hook or arrival completion (a dup must not re-wake a receiver
// that already shut down). The inbox is cleared so no stale message can be
// popped after the fact.
func (ep *Endpoint) Close() {
	ep.closed = true
	ep.inbox = nil
}

// Reopen re-enables delivery after Close (a crashed node restarting on the
// same address). Messages dropped while closed stay dropped.
func (ep *Endpoint) Reopen() { ep.closed = false }

// Closed reports whether the endpoint is closed.
func (ep *Endpoint) Closed() bool { return ep.closed }

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
// without transmitting on failure.
func (ep *Endpoint) Send(env *sim.Env, dst string, payload []byte) error {
	l := ep.out[dst]
	if l == nil {
		return fmt.Errorf("%w: %s->%s", ErrNoRoute, ep.name, dst)
	}
	env.Exec(TxCost)
	return l.transmit(payload)
}

// TryRecv pops the oldest inbox message without blocking or charging CPU
// (interrupt-context safe). Returns nil when the inbox is empty.
func (ep *Endpoint) TryRecv() *Msg {
	if len(ep.inbox) == 0 {
		return nil
	}
	m := ep.inbox[0]
	ep.inbox = ep.inbox[1:]
	return m
}

// Recv blocks the calling task until a message arrives, then pops and
// returns it, charging RxCost.
func (ep *Endpoint) Recv(env *sim.Env) *Msg {
	for len(ep.inbox) == 0 {
		c := ep.Arrival()
		if len(ep.inbox) > 0 {
			break
		}
		env.BlockOn(c)
	}
	env.Exec(RxCost)
	return ep.TryRecv()
}

// Link is one unidirectional src→dst pipe.
type Link struct {
	fab  *Fabric
	id   int
	src  *Endpoint
	dst  *Endpoint
	cfg  Config
	site string // "<src>-><dst>", names the fault-injection sites

	busyUntil  time.Duration // serialization horizon (last departure)
	lastArrive time.Duration // FIFO floor on arrival times
	queued     int           // accepted but not yet departed
	seq        uint64        // per-link transmission counter (jitter draws)
	down       bool          // partitioned: everything arriving is lost

	// Stats.
	Sent, Delivered, Dropped, Duped, Overflows uint64
}

// ID returns the link id (creation order; the QID of its trace events).
func (l *Link) ID() int { return l.id }

// Name returns "<src>-><dst>".
func (l *Link) Name() string { return l.site }

// Queued returns the number of messages accepted but not yet serialized.
func (l *Link) Queued() int { return l.queued }

// SetDown partitions (true) or heals (false) the link. While down, every
// arrival — including messages already in flight — is dropped and accounted;
// senders still pay transmit costs, exactly like a cable cut. Downing only
// one direction of a pair models an asymmetric partition.
func (l *Link) SetDown(down bool) { l.down = down }

// Down reports whether the link is partitioned.
func (l *Link) Down() bool { return l.down }

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
	h := splitmix64(l.fab.seed ^ fnv1a64(l.site) ^ l.seq*0x9e3779b97f4a7c15)
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
	if p := l.fab.plan; p != nil && p.Fire("net:dup:"+l.site) && l.queued < l.depth() {
		// The duplicate is its own transmission (and its own NetSend), so
		// the analyzer's sent >= delivered+dropped accounting holds.
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
	drop := false
	if p := l.fab.plan; p != nil && p.Fire("net:drop:"+l.site) {
		drop = true
	}
	m := &Msg{Src: l.src.name, Dst: l.dst.name, SrcID: l.src.id, DstID: l.dst.id,
		Payload: payload, SentAt: now, Dup: dup}
	onArrive := func() {
		if drop || l.down {
			l.Dropped++
			if tr := eng.Tracer; tr != nil {
				tr.Emit(l.dst.now(), trace.NetDrop, -1, l.id, trace.NoCID, 0, uint64(len(payload)))
			}
			return
		}
		l.deliverMsg(m)
	}
	if src := l.src.home; src != nil {
		src.ScheduleAt(depart, func() { l.queued-- })
		if dst := l.dst.home; dst != nil {
			src.ScheduleOn(dst, arrive, onArrive)
		} else {
			src.ScheduleOn(nil, arrive, onArrive)
		}
		return
	}
	eng.ScheduleAt(depart, func() { l.queued-- })
	eng.ScheduleAt(arrive, onArrive)
}

// deliverMsg lands one message at the destination endpoint (event context,
// on the destination's lane).
func (l *Link) deliverMsg(m *Msg) {
	eng := l.fab.eng
	now := l.dst.now()
	if l.dst.closed {
		// The receiver is gone: account the message as dropped on the link
		// (it was sent but never delivered) and on the endpoint, and do not
		// wake anyone.
		l.Dropped++
		l.dst.DroppedClosed++
		if tr := eng.Tracer; tr != nil {
			tr.Emit(now, trace.NetDrop, -1, l.id, trace.NoCID, 0, uint64(len(m.Payload)))
		}
		return
	}
	m.DeliveredAt = now
	l.Delivered++
	if tr := eng.Tracer; tr != nil {
		tr.Emit(now, trace.NetDeliver, -1, l.id, trace.NoCID, 0, uint64(len(m.Payload)))
	}
	d := l.dst
	d.inbox = append(d.inbox, m)
	d.Delivered++
	if d.deliver != nil {
		d.deliver(m)
		return
	}
	d.SignalArrival()
}

// fnv1a64/splitmix64 mirror internal/faultinject's deterministic draw
// machinery (kept local: the plan's are unexported and the jitter stream
// must not perturb the plan's site counters).
func fnv1a64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
