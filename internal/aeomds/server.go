package aeomds

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"aeolia/internal/netsim"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

// Config tunes a metadata Service.
type Config struct {
	// Shards is the number of namespace shards (default 1). Shard i listens
	// on fabric endpoint "mds<i>".
	Shards int
	// DataNodes is how many data servers files stripe across.
	DataNodes int
	// OpCPU is the per-operation CPU cost on the owning shard's core
	// (default 1.5us) — the decode+hash+update work a real MGM would do.
	OpCPU time.Duration
}

func (c Config) shards() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

func (c Config) opCPU() time.Duration {
	if c.OpCPU == 0 {
		return 1500 * time.Nanosecond
	}
	return c.OpCPU
}

// ShardEndpoint returns shard i's fabric endpoint name.
func ShardEndpoint(i int) string { return fmt.Sprintf("mds%d", i) }

// shardNames returns the endpoint names of shards 0..n-1: frames are sent by
// name, and naming a shard per frame would format a string per frame.
func shardNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = ShardEndpoint(i)
	}
	return names
}

// lease is one live layout lease on the granting (or adopting) shard.
type lease struct {
	id       uint32
	ino      uint64
	holder   string // the holder's fabric endpoint (revoke destination)
	revoking bool   // revoke sent, ack not yet processed
}

// pendTxn is a shard-task continuation parked on a peer reply: the client
// is answered only when the peer half of the operation lands. The shard
// keeps draining its queue meanwhile — a shard never blocks on a peer.
type pendTxn struct {
	req      Request
	replyTo  string
	traceTxn uint32    // rename visibility-transaction id
	meta     *FileMeta // rename: the moving record
	moved    []uint32  // rename: lease ids handed to the destination shard
}

// shardRT is one shard's runtime state beside its namespace Shard.
type shardRT struct {
	ep       *netsim.Endpoint
	leases   map[uint32]*lease
	free     []*lease // records of ended leases, for the next grant or adoption
	on       []*lease // leasesOn's result, reused
	leaseSeq uint32
	pend     map[uint64]*pendTxn
	txnSeq   uint64
}

// Service is the metadata service: cfg.Shards CSP tasks, each owning one
// namespace shard and one fabric endpoint, coordinating renames and mkdirs
// with peer messages and revoking layout leases asynchronously.
type Service struct {
	eng *sim.Engine
	fab *netsim.Fabric
	cfg Config
	ns  *Namespace
	rt  []*shardRT
	// names[i] is shard i's endpoint name.
	names []string

	stopped bool
	failure error

	// Lease accounting (engine-serialized).
	Granted, Released, RevokesSent, Revoked uint64
	// Ops counts client operations answered. BadFrames counts frames
	// dropped unanswered: empty, of unknown magic, undecodable client
	// requests and revoke acks, and acks for a lease not being revoked.
	Ops, BadFrames uint64
}

// NewService builds the service and its shard endpoints on the fabric.
func NewService(fab *netsim.Fabric, cfg Config) *Service {
	svc := &Service{
		eng:   fab.Engine(),
		fab:   fab,
		cfg:   cfg,
		ns:    NewNamespace(cfg.shards(), cfg.DataNodes, Layout{}),
		names: shardNames(cfg.shards()),
	}
	for i := 0; i < cfg.shards(); i++ {
		svc.rt = append(svc.rt, &shardRT{
			ep:     fab.Endpoint(svc.names[i]),
			leases: make(map[uint32]*lease),
			pend:   make(map[uint64]*pendTxn),
		})
	}
	return svc
}

// Endpoint returns shard i's endpoint.
func (svc *Service) Endpoint(i int) *netsim.Endpoint { return svc.rt[i].ep }

// Err returns the first internal failure (nil while healthy).
func (svc *Service) Err() error { return svc.failure }

// Start spawns one task per shard. cores[i%len(cores)] hosts shard i, so
// passing fewer cores than shards packs them.
func (svc *Service) Start(cores []*sim.Core) {
	for i := range svc.rt {
		i := i
		svc.eng.Spawn(fmt.Sprintf("mds-shard-%d", i), cores[i%len(cores)], func(env *sim.Env) {
			svc.serveShard(env, i)
		})
	}
}

// Stop drains the shard tasks. Safe to call from outside the engine.
func (svc *Service) Stop() {
	svc.eng.Schedule(0, func() {
		svc.stopped = true
		for _, rt := range svc.rt {
			rt.ep.SignalArrival()
		}
	})
}

func (svc *Service) fail(err error) {
	if svc.failure == nil {
		svc.failure = err
	}
}

func (svc *Service) emit(env *sim.Env, typ trace.Type, shard int, cid uint32, ino, aux uint64) {
	if tr := svc.eng.Tracer; tr != nil {
		core := -1
		if c := env.Task().Core(); c != nil {
			core = c.ID
		}
		tr.Emit(env.Now(), typ, core, shard, cid, ino, aux)
	}
}

// send transmits with bounded backoff on link overflow.
func (svc *Service) send(env *sim.Env, ep *netsim.Endpoint, dst string, b []byte) {
	for {
		err := ep.Send(env, dst, b)
		if err == nil {
			return
		}
		if !errors.Is(err, netsim.ErrOverflow) {
			svc.fail(fmt.Errorf("aeomds: send to %s: %w", dst, err))
			return
		}
		env.Sleep(5 * time.Microsecond)
	}
}

// serveShard is shard i's task body: a blocking receive loop dispatching on
// the frame magic. The shard never blocks on a peer shard — cross-shard
// operations park a continuation and the loop keeps draining.
func (svc *Service) serveShard(env *sim.Env, i int) {
	ep := svc.rt[i].ep
	for {
		m := ep.TryRecv()
		if m == nil {
			if svc.stopped {
				return
			}
			c := ep.Arrival()
			if ep.Pending() > 0 || svc.stopped {
				continue
			}
			env.BlockOn(c)
			continue
		}
		if len(m.Payload) == 0 {
			svc.BadFrames++
			continue
		}
		env.Exec(netsim.RxCost + svc.cfg.opCPU())
		switch m.Payload[0] {
		case magicReq:
			svc.handleClient(env, i, m)
		case magicPeerReq:
			svc.handlePeer(env, i, m)
		case magicPeerResp:
			svc.handlePeerResp(env, i, m)
		case magicRevokeAck:
			svc.handleRevokeAck(env, i, m)
		default:
			svc.BadFrames++
		}
	}
}

// reply answers a client request.
func (svc *Service) reply(env *sim.Env, i int, dst string, resp Response) {
	svc.Ops++
	ep := svc.rt[i].ep
	svc.send(env, ep, dst, resp.encode(ep.Frame(resp.size())))
}

func errResp(id uint64, err error) Response {
	return Response{ID: id, Status: StatusErr, Err: err.Error()}
}

// grantLease issues a layout lease for ino to holder.
func (svc *Service) grantLease(env *sim.Env, i int, ino uint64, holder string) uint32 {
	rt := svc.rt[i]
	rt.leaseSeq++
	id := uint32(i+1)<<24 | rt.leaseSeq
	rt.leases[id] = rt.newLease(id, ino, holder)
	svc.Granted++
	svc.emit(env, trace.MDSLeaseGrant, i, id, ino, 0)
	return id
}

// newLease takes a lease record from the free list, or allocates one.
func (rt *shardRT) newLease(id uint32, ino uint64, holder string) *lease {
	var l *lease
	if n := len(rt.free); n > 0 {
		l = rt.free[n-1]
		rt.free[n-1] = nil
		rt.free = rt.free[:n-1]
	} else {
		l = new(lease)
	}
	*l = lease{id: id, ino: ino, holder: holder}
	return l
}

// endLease removes lease id from the shard's books and keeps its record
// for a later grant.
func (rt *shardRT) endLease(id uint32) {
	if l := rt.leases[id]; l != nil {
		delete(rt.leases, id)
		*l = lease{}
		rt.free = append(rt.free, l)
	}
}

// leasesOn returns the shard's live leases on ino that are not being
// revoked, in lease-id order, so what is done to them does not follow the
// map's order. The slice is reused by the next call.
func (rt *shardRT) leasesOn(ino uint64) []*lease {
	rt.on = rt.on[:0]
	for _, l := range rt.leases {
		if l.ino == ino && !l.revoking {
			rt.on = append(rt.on, l)
		}
	}
	slices.SortFunc(rt.on, func(a, b *lease) int { return cmp.Compare(a.id, b.id) })
	return rt.on
}

// revokeLeases revokes every live lease on ino held at shard i (skipping
// already-revoking ones). Revocation is asynchronous: the frame goes out,
// the op completes, and the lease dies when the ack arrives.
func (svc *Service) revokeLeases(env *sim.Env, i int, ino uint64) {
	rt := svc.rt[i]
	for _, l := range rt.leasesOn(ino) {
		l.revoking = true
		svc.RevokesSent++
		svc.emit(env, trace.MDSLeaseRevoke, i, l.id, ino, 0)
		f := revokeFrame{Shard: uint16(i), Lease: l.id, Ino: ino}
		svc.send(env, rt.ep, l.holder, f.encode(rt.ep.Frame(f.size())))
	}
}

// handleRevokeAck completes a revocation: the holder has dropped its
// layout.
func (svc *Service) handleRevokeAck(env *sim.Env, i int, m *netsim.Msg) {
	rt := svc.rt[i]
	ack, err := decodeRevokeAck(m.Payload)
	rt.ep.Release(m)
	if err != nil {
		svc.BadFrames++
		return
	}
	l := rt.leases[ack.Lease]
	if l == nil || !l.revoking {
		svc.BadFrames++
		return
	}
	svc.Revoked++
	svc.emit(env, trace.MDSLeaseRevoked, i, l.id, l.ino, 0)
	rt.endLease(ack.Lease)
}

// nextTxn allocates a peer-coordination transaction id on shard i.
func (svc *Service) nextTxn(i int) uint64 {
	svc.rt[i].txnSeq++
	return uint64(i+1)<<32 | svc.rt[i].txnSeq
}

// handleClient executes one client metadata request on shard i.
func (svc *Service) handleClient(env *sim.Env, i int, m *netsim.Msg) {
	req, err := DecodeRequest(m.Payload)
	svc.rt[i].ep.Release(m)
	if err != nil {
		svc.BadFrames++
		return
	}
	sh := svc.ns.Shard(i)
	done := func(resp Response, ino uint64) {
		svc.emit(env, trace.MDSOp, i, trace.NoCID, ino, uint64(req.Op))
		svc.reply(env, i, m.Src, resp)
	}
	switch req.Op {
	case OpLookup:
		ino, meta, err := sh.Lookup(req.Dir, req.Name)
		if err != nil {
			done(errResp(req.ID, err), 0)
			return
		}
		resp := Response{ID: req.ID, Ino: ino}
		if meta == nil {
			resp.IsDir = true
		} else {
			resp.Size, resp.Mode, resp.StripeUnit = meta.Size, meta.Mode, meta.StripeUnit
		}
		done(resp, ino)

	case OpOpen:
		meta, err := sh.Open(req.Dir, req.Name, req.Flags&FlagCreate != 0, req.Flags&FlagWrite != 0, req.Mode)
		if err != nil {
			done(errResp(req.ID, err), 0)
			return
		}
		id := svc.grantLease(env, i, meta.Ino, m.Src)
		// The reply is encoded before anything can change meta.Nodes.
		done(Response{ID: req.ID, Ino: meta.Ino, Size: meta.Size, Mode: meta.Mode,
			StripeUnit: meta.StripeUnit, Lease: id, Nodes: meta.Nodes}, meta.Ino)

	case OpRelease:
		rt := svc.rt[i]
		if l := rt.leases[req.Lease]; l != nil && !l.revoking {
			ino := l.ino
			svc.Released++
			svc.emit(env, trace.MDSLeaseRelease, i, l.id, ino, 0)
			rt.endLease(req.Lease)
			// Flush the holder's size view; the file may since have been
			// unlinked or renamed away, which is not the releaser's problem.
			if _, err := sh.SetSize(req.Dir, req.Name, req.Size); err == nil {
				done(Response{ID: req.ID}, ino)
				return
			}
		}
		done(Response{ID: req.ID}, 0)

	case OpMkdir:
		ino, err := sh.MkdirEntry(req.Dir, req.Name)
		if err != nil {
			done(errResp(req.ID, err), 0)
			return
		}
		child := JoinPath(req.Dir, req.Name)
		j := ShardOf(child, svc.ns.NumShards())
		if j == i {
			sh.AttachDir(child, ino)
			done(Response{ID: req.ID, Ino: ino, IsDir: true}, ino)
			return
		}
		// Cross-shard: park until the child shard attaches the directory,
		// or a racing create in the new directory could miss.
		txn := svc.nextTxn(i)
		svc.rt[i].pend[txn] = &pendTxn{req: req, replyTo: m.Src}
		p := peerReq{Txn: txn, Kind: peerAttachDir, Dir: child, Ino: ino}
		ep := svc.rt[i].ep
		svc.send(env, ep, svc.names[j], p.encode(ep.Frame(p.size())))

	case OpUnlink:
		meta, err := sh.Unlink(req.Dir, req.Name)
		if err != nil {
			done(errResp(req.ID, err), 0)
			return
		}
		svc.revokeLeases(env, i, meta.Ino)
		done(Response{ID: req.ID, Ino: meta.Ino}, meta.Ino)

	case OpReaddir:
		ents, err := sh.Readdir(req.Dir)
		if err != nil {
			done(errResp(req.ID, err), 0)
			return
		}
		done(Response{ID: req.ID, Entries: ents}, 0)

	case OpTruncate:
		meta, err := sh.SetSize(req.Dir, req.Name, req.Size)
		if err != nil {
			done(errResp(req.ID, err), 0)
			return
		}
		// Every outstanding layout (including the caller's) is stale.
		svc.revokeLeases(env, i, meta.Ino)
		done(Response{ID: req.ID, Ino: meta.Ino, Size: meta.Size}, meta.Ino)

	case OpChmod:
		meta, err := sh.Chmod(req.Dir, req.Name, req.Mode)
		if err != nil {
			done(errResp(req.ID, err), 0)
			return
		}
		done(Response{ID: req.ID, Ino: meta.Ino, Mode: meta.Mode}, meta.Ino)

	case OpRename:
		svc.handleRename(env, i, m, req)

	default:
		done(errResp(req.ID, ErrUnsupported), 0)
	}
}

// renameTxnID derives the trace transaction id from a peer txn (unique
// across shards: shard+1 in the high byte).
func renameTxnID(txn uint64) uint32 {
	return uint32(txn>>32)<<24 | uint32(txn&0xffffff)
}

// handleRename routes one rename. The client sends it to the source
// directory's shard; the destination half runs here (same shard) or on the
// peer owning the destination directory (ingest message).
func (svc *Service) handleRename(env *sim.Env, i int, m *netsim.Msg, req Request) {
	sh := svc.ns.Shard(i)
	done := func(resp Response, ino uint64) {
		svc.emit(env, trace.MDSOp, i, trace.NoCID, ino, uint64(req.Op))
		svc.reply(env, i, m.Src, resp)
	}
	if req.Dir == req.Dir2 && req.Name == req.Name2 {
		meta, err := sh.PeekFile(req.Dir, req.Name)
		if err != nil {
			done(errResp(req.ID, err), 0)
			return
		}
		done(Response{ID: req.ID, Ino: meta.Ino}, meta.Ino)
		return
	}
	j := ShardOf(req.Dir2, svc.ns.NumShards())
	txn := svc.nextTxn(i)
	ttxn := renameTxnID(txn)
	if j == i {
		// Both halves local: link, unlink, done — synchronously.
		var displaced *FileMeta
		var meta *FileMeta
		var err error
		if req.Dir == req.Dir2 {
			meta, err = sh.PeekFile(req.Dir, req.Name)
			if err == nil {
				displaced, err = sh.RenameLocal(req.Dir, req.Name, req.Name2)
			}
		} else {
			meta, err = sh.PeekFile(req.Dir, req.Name)
			if err == nil {
				displaced, err = sh.Ingest(req.Dir2, req.Name2, meta.Clone())
				if err == nil {
					_, err = sh.RemoveSrc(req.Dir, req.Name)
				}
			}
		}
		if err != nil {
			done(errResp(req.ID, err), 0)
			return
		}
		if displaced != nil {
			svc.revokeLeases(env, i, displaced.Ino)
		}
		svc.emit(env, trace.MDSRenameLink, i, ttxn, meta.Ino, 0)
		svc.emit(env, trace.MDSRenameUnlink, i, ttxn, meta.Ino, 0)
		svc.emit(env, trace.MDSRenameDone, i, ttxn, meta.Ino, 0)
		done(Response{ID: req.ID, Ino: meta.Ino}, meta.Ino)
		return
	}
	// Cross-shard: validate locally, ship the record (with its live leases
	// — the destination shard adopts revocation duty), park, keep serving.
	meta, err := sh.PeekFile(req.Dir, req.Name)
	if err != nil {
		done(errResp(req.ID, err), 0)
		return
	}
	p := peerReq{Txn: txn, Kind: peerIngest, Dir: req.Dir2, Name: req.Name2, Meta: *meta.Clone()}
	var moved []uint32
	for _, l := range svc.rt[i].leasesOn(meta.Ino) {
		p.Leases = append(p.Leases, leaseRec{ID: l.id, Ino: l.ino, Holder: l.holder})
		moved = append(moved, l.id)
	}
	svc.rt[i].pend[txn] = &pendTxn{req: req, replyTo: m.Src, traceTxn: ttxn, meta: meta, moved: moved}
	ep := svc.rt[i].ep
	svc.send(env, ep, svc.names[j], p.encode(ep.Frame(p.size())))
}

// handlePeer executes the destination half of a cross-shard operation.
func (svc *Service) handlePeer(env *sim.Env, i int, m *netsim.Msg) {
	rt := svc.rt[i]
	p, err := decodePeerReq(m.Payload)
	rt.ep.Release(m)
	if err != nil {
		svc.fail(err)
		return
	}
	sh := svc.ns.Shard(i)
	resp := peerResp{Txn: p.Txn}
	switch p.Kind {
	case peerAttachDir:
		sh.AttachDir(p.Dir, p.Ino)
	case peerIngest:
		displaced, err := sh.Ingest(p.Dir, p.Name, p.Meta.Clone())
		if err != nil {
			resp.Status = StatusErr
			resp.Err = err.Error()
			break
		}
		if displaced != nil {
			svc.revokeLeases(env, i, displaced.Ino)
		}
		// Adopt the moving file's leases: this shard owns its parent now.
		for _, l := range p.Leases {
			rt.leases[l.ID] = rt.newLease(l.ID, l.Ino, l.Holder)
		}
		svc.emit(env, trace.MDSRenameLink, i, renameTxnID(p.Txn), p.Meta.Ino, 0)
	default:
		resp.Status = StatusErr
		resp.Err = ErrUnsupported.Error()
	}
	svc.send(env, rt.ep, m.Src, resp.encode(rt.ep.Frame(resp.size())))
}

// handlePeerResp resumes the continuation parked on a peer reply.
func (svc *Service) handlePeerResp(env *sim.Env, i int, m *netsim.Msg) {
	rt := svc.rt[i]
	pr, err := decodePeerResp(m.Payload)
	rt.ep.Release(m)
	if err != nil {
		svc.fail(err)
		return
	}
	pt := rt.pend[pr.Txn]
	if pt == nil {
		svc.fail(fmt.Errorf("aeomds: shard %d: peer reply for unknown txn %d", i, pr.Txn))
		return
	}
	delete(rt.pend, pr.Txn)
	sh := svc.ns.Shard(i)
	done := func(resp Response, ino uint64) {
		svc.emit(env, trace.MDSOp, i, trace.NoCID, ino, uint64(pt.req.Op))
		svc.reply(env, i, pt.replyTo, resp)
	}
	switch pt.req.Op {
	case OpMkdir:
		if pr.Status != StatusOK {
			done(errResp(pt.req.ID, wireErr(pr.Err)), 0)
			return
		}
		done(Response{ID: pt.req.ID, IsDir: true}, 0)
	case OpRename:
		if pr.Status != StatusOK {
			done(errResp(pt.req.ID, wireErr(pr.Err)), 0)
			return
		}
		// The destination is linked; drop the source entry and the leases
		// the destination shard adopted. A concurrent unlink may have
		// removed the source already — the destination link stands either
		// way, so the rename still completes.
		if _, err := sh.RemoveSrc(pt.req.Dir, pt.req.Name); err != nil && !errors.Is(err, ErrNotFound) {
			done(errResp(pt.req.ID, err), 0)
			return
		}
		for _, id := range pt.moved {
			rt.endLease(id)
		}
		svc.emit(env, trace.MDSRenameUnlink, i, pt.traceTxn, pt.meta.Ino, 0)
		svc.emit(env, trace.MDSRenameDone, i, pt.traceTxn, pt.meta.Ino, 0)
		done(Response{ID: pt.req.ID, Ino: pt.meta.Ino}, pt.meta.Ino)
	default:
		svc.fail(fmt.Errorf("aeomds: shard %d: continuation for unexpected op %v", i, pt.req.Op))
	}
}

// ActiveLeases counts live (granted or revoking) leases across shards.
func (svc *Service) ActiveLeases() int {
	n := 0
	for _, rt := range svc.rt {
		n += len(rt.leases)
	}
	return n
}

// CheckAccounting cross-checks the lease books after a drained run: every
// granted lease is live, released, or revoke-completed — no lease is lost
// or double-counted — and no continuation is still parked.
func (svc *Service) CheckAccounting() error {
	if svc.failure != nil {
		return svc.failure
	}
	live := uint64(svc.ActiveLeases())
	if svc.Granted != live+svc.Released+svc.Revoked {
		return fmt.Errorf("aeomds: granted %d != live %d + released %d + revoked %d",
			svc.Granted, live, svc.Released, svc.Revoked)
	}
	if svc.Revoked > svc.RevokesSent {
		return fmt.Errorf("aeomds: %d revokes completed for %d sent", svc.Revoked, svc.RevokesSent)
	}
	for i, rt := range svc.rt {
		if len(rt.pend) != 0 {
			return fmt.Errorf("aeomds: shard %d: %d continuation(s) still parked", i, len(rt.pend))
		}
	}
	return nil
}
