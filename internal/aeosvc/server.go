package aeosvc

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"aeolia/internal/aeokern"
	"aeolia/internal/mpk"
	"aeolia/internal/netsim"
	"aeolia/internal/rxport"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
	"aeolia/internal/uintr"
	"aeolia/internal/vfs"
)

// rxUserVector is the user-interrupt vector network completions post into
// the dispatcher's UPID (any value < uintr.MaxVectors works; the handler
// identifies the source by checking the endpoint inbox, §4.2's "check the
// hardware queue" step applied to the network).
const rxUserVector = 7

// requestCPU is the per-request parse/dispatch cost on the dispatcher, on top
// of netsim.RxCost: together 1.2 us, 833 kIOPS through one rx queue.
const requestCPU = time.Microsecond

// IOClassSetter retags the calling thread's I/O delivery class; the
// aeodriver Driver implements it. Wired via Config.IO so workers can tag
// each admitted request's storage I/O with its tenant's class.
type IOClassSetter interface {
	SetIOClass(env *sim.Env, class uintr.Class) error
}

// Config tunes a Server.
type Config struct {
	// Endpoint is the fabric name the service listens on (default "svc").
	Endpoint string
	// Admission enables per-tenant rate limits and backlog bounds; off,
	// every request is admitted (the uncontrolled baseline).
	Admission bool
	// Tenants is the admission policy table.
	Tenants []TenantConfig
	// QoS turns on class-aware service: strict-priority dequeue across
	// tenant classes (TenantConfig.Class), the dispatcher's rx vector
	// promoted to ClassHigh, and per-request I/O class tagging through IO.
	QoS bool
	// IO, when set with QoS, lets workers retag their storage I/O to the
	// admitted request's tenant class (pass the process's aeodriver).
	IO IOClassSetter
}

func (c Config) endpoint() string {
	if c.Endpoint == "" {
		return "svc"
	}
	return c.Endpoint
}

// connState is one connection's server-side state machine: the handles it
// opened (a per-connection capability table) and its pipelining depth.
type connState struct {
	id   int32
	name string // reply endpoint
	fds  map[uint32]bool

	outstanding    int // received, not yet replied
	maxOutstanding int // high-water mark (observed pipelining depth)
}

// Server is the storage service: one uintr-driven dispatcher task feeding
// a worker pool through admission control.
type Server struct {
	eng  *sim.Engine
	kern *aeokern.Kernel
	gate *mpk.Gate
	fab  *netsim.Fabric
	fs   vfs.FileSystem
	cfg  Config

	ep    *netsim.Endpoint
	adm   *Admission
	conns map[int32]*connState
	// free holds retired pending records. The dispatcher takes them and
	// workers return them, all on the server's one engine lane.
	free []*pending

	workWQ  sim.WaitQueue
	stopped bool

	// rx is the dispatcher's user-interrupt receive port (bound by ServeRx).
	rx rxport.Port

	// Stats. Atomic: the dispatcher and worker tasks on other cores all bump
	// these, and the race-tier hammer test pounds them from real goroutines.
	Received, Admitted, Shed, FSOps, Replied atomic.Uint64
	BadRequests                              atomic.Uint64
	ReplyRetries                             atomic.Uint64

	// copyAnnounced latches the one-time CopyBudget announcement for the
	// service read path.
	copyAnnounced atomic.Bool

	failure error
}

// NewServer wires a server onto the fabric. kern/gate come from the
// launched server process (machine.Process); fs is its mounted file system.
func NewServer(fab *netsim.Fabric, kern *aeokern.Kernel, gate *mpk.Gate, fs vfs.FileSystem, cfg Config) *Server {
	s := &Server{
		eng:   kern.Engine(),
		kern:  kern,
		gate:  gate,
		fab:   fab,
		fs:    fs,
		cfg:   cfg,
		ep:    fab.Endpoint(cfg.endpoint()),
		adm:   NewAdmission(cfg.Admission, cfg.QoS, cfg.Tenants),
		conns: make(map[int32]*connState),
	}
	return s
}

// Endpoint returns the fabric endpoint the service listens on.
func (s *Server) Endpoint() *netsim.Endpoint { return s.ep }

// UPID returns the dispatcher's posting descriptor (nil before ServeRx
// binds); tests inspect its notification counters.
func (s *Server) UPID() *uintr.UPID { return s.rx.UPID() }

// Err returns the first internal failure (nil while healthy).
func (s *Server) Err() error { return s.failure }

// Start spawns the dispatcher on rxCore and one worker per workerCores
// entry. Worker tasks create their own driver queue pairs (vfs.PerThreadInit),
// so they must NOT share a core with the dispatcher: the dispatcher's one
// uintr registration belongs to the network vector.
func (s *Server) Start(rxCore *sim.Core, workerCores []*sim.Core) {
	boost := func(t *sim.Task) {
		// QoS includes the CPU side: service threads carry tenants of
		// every class, so they run at elevated scheduling weight (the
		// nice -10 a real latency-critical I/O service would get). An
		// admission budget and priority dequeue mean nothing if a
		// best-effort hog on the worker's core can claim fair share
		// ahead of an urgent completion.
		if !s.cfg.QoS {
			return
		}
		type weightSetter interface {
			SetWeight(*sim.Task, int64)
		}
		if ws, ok := s.eng.Scheduler().(weightSetter); ok {
			ws.SetWeight(t, qosServiceWeight)
		}
	}
	// The rx dispatcher is NOT boosted: it actively checks for arrivals,
	// and at elevated weight its spin would never yield the core to
	// housekeeping tasks sharing it (the write-back flusher lives on core
	// 0 by default).
	s.eng.Spawn("svc-rx", rxCore, s.ServeRx)
	for i, c := range workerCores {
		boost(s.eng.Spawn(fmt.Sprintf("svc-worker-%d", i), c, s.ServeWorker))
	}
}

// qosServiceWeight is the EEVDF load weight of QoS-mode service threads,
// Linux's sched_prio_to_weight value for nice -10.
const qosServiceWeight = 9548

// Stop initiates shutdown: the dispatcher and workers drain and exit. Safe
// to call from outside the engine (it schedules an event).
func (s *Server) Stop() {
	s.eng.Schedule(0, func() {
		s.stopped = true
		s.ep.SignalArrival()
		s.workWQ.Broadcast(s.eng)
	})
}

func (s *Server) fail(err error) {
	if s.failure == nil {
		s.failure = err
	}
}

// ServeRx is the dispatcher task body: it binds the netsim endpoint to the
// uintr receive port, then loops receiving, decoding, and admitting
// requests. Arrival waits follow the driver's policy: block when another
// task wants the core, otherwise actively check and let the in-schedule
// user interrupt resume the spin (§2.1/§6.1 applied to the network edge).
func (s *Server) ServeRx(env *sim.Env) {
	cfg := rxport.Config{
		Vector:      func(*netsim.Msg) uint8 { return rxUserVector },
		Woken:       func() bool { return s.stopped },
		ActiveCheck: true,
	}
	if s.cfg.QoS {
		// Network arrivals outrank bulk storage completions but yield to
		// urgent-tenant I/O: the dispatcher must never starve the class
		// the SLO is written against.
		cfg.Classes = uintr.NewClassMap(uintr.ClassNormal).Set(rxUserVector, uintr.ClassHigh)
	}
	if err := s.rx.Bind(env, s.kern, s.gate, s.ep, cfg); err != nil {
		s.fail(err)
		return
	}
	// Recv returns nil once the server is stopped and the inbox drained.
	for m := s.rx.Recv(env); m != nil; m = s.rx.Recv(env) {
		s.handle(env, m)
	}
}

// handle decodes, accounts, and admits (or sheds) one received request.
func (s *Server) handle(env *sim.Env, m *netsim.Msg) {
	env.Exec(netsim.RxCost + requestCPU)
	now := env.Now()
	req, err := DecodeRequest(m.Payload)
	if err != nil {
		// Undecodable frame: no request id to reply to.
		s.BadRequests.Add(1)
		return
	}
	conn := s.conn(m)
	conn.outstanding++
	if conn.outstanding > conn.maxOutstanding {
		conn.maxOutstanding = conn.outstanding
	}
	s.Received.Add(1)
	if tr := s.eng.Tracer; tr != nil {
		tr.Emit(now, trace.SvcReqRecv, s.coreID(env), int(conn.id), uint32(req.ID), 0, uint64(req.Op))
	}
	p := s.newPending()
	p.req, p.conn, p.recvAt, p.frame = req, conn.id, now, *m
	// With QoS the admit/shed aux also carries the serving class
	// (class<<16 | tenant); without it the encoding is unchanged.
	tenantAux := uint64(req.Tenant)
	if s.cfg.QoS {
		tenantAux |= uint64(s.adm.ClassOf(req.Tenant)) << 16
	}
	if s.adm.Offer(now, p) {
		s.Admitted.Add(1)
		if tr := s.eng.Tracer; tr != nil {
			tr.Emit(now, trace.SvcAdmit, s.coreID(env), int(conn.id), uint32(req.ID), 0, tenantAux)
		}
		s.workWQ.Signal(s.eng)
		return
	}
	s.Shed.Add(1)
	if tr := s.eng.Tracer; tr != nil {
		tr.Emit(now, trace.SvcShed, s.coreID(env), int(conn.id), uint32(req.ID), 0, tenantAux)
	}
	s.reply(env, p, Response{ID: req.ID, Status: StatusThrottled}, nil)
}

// newPending takes a record from the free list, or allocates one.
func (s *Server) newPending() *pending {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p
	}
	return &pending{}
}

// retire ends p once its reply is out: the request's frame goes back to the
// client, whose next request may be encoded into it, and the record to the
// free list.
func (s *Server) retire(p *pending) {
	s.ep.Release(&p.frame)
	*p = pending{}
	s.free = append(s.free, p)
}

// conn returns (creating if needed) the connection state for a message's
// source endpoint.
func (s *Server) conn(m *netsim.Msg) *connState {
	id := int32(m.SrcID)
	cs := s.conns[id]
	if cs == nil {
		cs = &connState{id: id, name: m.Src, fds: make(map[uint32]bool)}
		s.conns[id] = cs
	}
	return cs
}

// Conn returns a connection's observed pipelining high-water mark (0 for
// unknown connections).
func (s *Server) ConnMaxOutstanding(srcID int) int {
	if cs := s.conns[int32(srcID)]; cs != nil {
		return cs.maxOutstanding
	}
	return 0
}

func (s *Server) coreID(env *sim.Env) int {
	if c := env.Task().Core(); c != nil {
		return c.ID
	}
	return -1
}

// ServeWorker is one worker task body: per-thread driver setup, then a
// dequeue-execute-reply loop over the admitted queue.
func (s *Server) ServeWorker(env *sim.Env) {
	if init, ok := s.fs.(vfs.PerThreadInit); ok {
		if err := init.InitThread(env); err != nil {
			s.fail(fmt.Errorf("aeosvc: worker init: %w", err))
			return
		}
	}
	for {
		p := s.adm.Next()
		if p == nil {
			if s.stopped {
				return
			}
			s.workWQ.Wait(env)
			continue
		}
		if s.cfg.QoS && s.cfg.IO != nil {
			// Tag this request's storage I/O with the tenant's class so
			// urgent completions bypass coalescing end to end.
			if err := s.cfg.IO.SetIOClass(env, s.adm.ClassOf(p.req.Tenant)); err != nil {
				s.fail(fmt.Errorf("aeosvc: set io class: %w", err))
				return
			}
		}
		resp, enc := s.execute(env, p)
		if tr := s.eng.Tracer; tr != nil {
			var moved uint64
			if resp.Status == StatusOK {
				moved = uint64(resp.Value)
			}
			tr.Emit(env.Now(), trace.SvcFSOp, s.coreID(env), int(p.conn), uint32(p.req.ID), 0, moved)
		}
		s.FSOps.Add(1)
		s.reply(env, p, resp, enc)
	}
}

// execute runs one admitted request against the file system,
// enforcing the connection's handle capability table. For OpRead it also
// returns the pre-encoded reply frame (the read landed directly in its
// payload region); enc is nil for every other outcome and reply falls back
// to Response.Encode.
func (s *Server) execute(env *sim.Env, p *pending) (Response, []byte) {
	req := &p.req
	resp := Response{ID: req.ID}
	var enc []byte
	cs := s.conns[p.conn]
	fail := func(err error) (Response, []byte) {
		resp.Status = StatusErr
		resp.Err = err.Error()
		return resp, nil
	}
	needFD := func() error {
		if cs == nil || !cs.fds[req.FD] {
			return fmt.Errorf("aeosvc: conn %d: bad fd %d", p.conn, req.FD)
		}
		return nil
	}
	switch req.Op {
	case OpOpen:
		fd, err := s.fs.Open(env, req.Path, vfs.O_CREATE|vfs.O_RDWR)
		if err != nil {
			return fail(err)
		}
		if cs != nil {
			cs.fds[uint32(fd)] = true
		}
		resp.Value = uint32(fd)
	case OpClose:
		if err := needFD(); err != nil {
			return fail(err)
		}
		if err := s.fs.Close(env, int(req.FD)); err != nil {
			return fail(err)
		}
		delete(cs.fds, req.FD)
	case OpRead:
		if err := needFD(); err != nil {
			return fail(err)
		}
		// Zero-copy reply: allocate the response frame up front and read
		// straight into its payload region, so the page cache's copy-out is
		// the only copy between cached data and wire bytes. The old path
		// staged the read in a scratch buffer that Encode copied again.
		f := newReadFrame(s.ep.Frame(respHeader+int(req.Len)), req.ID, int(req.Len))
		n, err := s.fs.ReadAt(env, int(req.FD), f.Payload(), req.Off)
		if err != nil {
			return fail(err)
		}
		enc = f.Finish(n)
		resp.Value = uint32(n)
		if cid := s.beginChain(trace.PathSvcRead, 1); cid != trace.NoCID {
			// The single budgeted copy on the service read path is the page
			// cache → frame transfer ReadAt just performed; the frame then
			// moves to the network by reference.
			s.emitPath(trace.BufCopy, trace.PathSvcRead, cid, uint64(n))
			s.emitPath(trace.BufHandoff, trace.PathSvcRead, cid,
				trace.HandoffAux(trace.StageSvc, trace.StageNet))
		}
	case OpWrite:
		if err := needFD(); err != nil {
			return fail(err)
		}
		n, err := s.fs.WriteAt(env, int(req.FD), req.Data, req.Off)
		if err != nil {
			return fail(err)
		}
		resp.Value = uint32(n)
	case OpFsync:
		if err := needFD(); err != nil {
			return fail(err)
		}
		if err := s.fs.Fsync(env, int(req.FD)); err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("aeosvc: unhandled op %v", req.Op))
	}
	resp.Status = StatusOK
	return resp, enc
}

// beginChain allocates a copy-accounting chain id for one service read,
// announcing the path's copy budget to the analyzer on first use. Returns
// trace.NoCID when the engine is untraced.
func (s *Server) beginChain(path int, budget uint64) uint32 {
	tr := s.eng.Tracer
	if tr == nil {
		return trace.NoCID
	}
	if s.copyAnnounced.CompareAndSwap(false, true) {
		tr.Emit(s.eng.Now(), trace.CopyBudget, -1, path, trace.NoCID, 0, budget)
	}
	return tr.NextChain()
}

// emitPath emits one copy-accounting event (QID carries the path id, CID
// the chain id).
func (s *Server) emitPath(typ trace.Type, path int, cid uint32, aux uint64) {
	s.eng.Tracer.Emit(s.eng.Now(), typ, -1, path, cid, 0, aux)
}

// reply sends the response for p, retiring its connection slot and then p.
// enc, when non-nil, is the pre-encoded frame from the zero-copy read path;
// otherwise the response is encoded here. Either way the frame comes from
// the server's free list: the client releases it once decoded.
// Reply-link backpressure (ErrOverflow) is absorbed by a bounded retry loop
// — the closed-loop clients keep reply queues shallow, so this only
// triggers under deliberately tiny link depths.
func (s *Server) reply(env *sim.Env, p *pending, resp Response, enc []byte) {
	defer s.retire(p)
	if enc == nil {
		enc = resp.encode(s.ep.Frame(resp.size()))
	}
	if tr := s.eng.Tracer; tr != nil {
		tr.Emit(env.Now(), trace.SvcReply, s.coreID(env), int(p.conn), uint32(p.req.ID), 0, uint64(resp.Status))
	}
	s.Replied.Add(1)
	if cs := s.conns[p.conn]; cs != nil {
		cs.outstanding--
	}
	for {
		err := s.ep.Send(env, p.frame.Src, enc)
		if err == nil {
			return
		}
		if !errors.Is(err, netsim.ErrOverflow) {
			s.fail(fmt.Errorf("aeosvc: reply to %s: %w", p.frame.Src, err))
			return
		}
		s.ReplyRetries.Add(1)
		// On the dispatcher's shed path this sleeps with the rx port's
		// notifications masked. Harmless: the sleep's own timer wakes the
		// task, which returns to the receive loop, drains and unmasks.
		env.Sleep(5 * time.Microsecond)
	}
}

// Stats is the server-side accounting snapshot.
type Stats struct {
	Received, Admitted, Shed, FSOps, Replied uint64
	BadRequests                              uint64
	Tenants                                  []TenantStats
}

// Stats snapshots the accounting counters.
func (s *Server) Stats() Stats {
	return Stats{
		Received: s.Received.Load(), Admitted: s.Admitted.Load(), Shed: s.Shed.Load(),
		FSOps: s.FSOps.Load(), Replied: s.Replied.Load(), BadRequests: s.BadRequests.Load(),
		Tenants: s.adm.TenantStats(),
	}
}

// CheckAccounting cross-checks the admission-control books after a drained
// run: every received request was admitted or shed (never both), every
// admitted request executed exactly one fs op, and every received request
// got exactly one reply.
func (s *Server) CheckAccounting() error {
	if s.failure != nil {
		return s.failure
	}
	received, admitted := s.Received.Load(), s.Admitted.Load()
	if received != admitted+s.Shed.Load() {
		return fmt.Errorf("aeosvc: received %d != admitted %d + shed %d",
			received, admitted, s.Shed.Load())
	}
	if s.FSOps.Load() != admitted {
		return fmt.Errorf("aeosvc: %d fs ops for %d admitted requests", s.FSOps.Load(), admitted)
	}
	if s.Replied.Load() != received {
		return fmt.Errorf("aeosvc: %d replies for %d received requests", s.Replied.Load(), received)
	}
	var recv, adm, shed uint64
	for _, ts := range s.adm.TenantStats() {
		recv += ts.Received
		adm += ts.Admitted
		shed += ts.Shed
	}
	if recv != received || adm != admitted || shed != s.Shed.Load() {
		return fmt.Errorf("aeosvc: tenant totals (%d/%d/%d) disagree with server counters (%d/%d/%d)",
			recv, adm, shed, received, admitted, s.Shed.Load())
	}
	return s.adm.CheckAccounting()
}
