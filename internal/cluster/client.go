package cluster

import (
	"encoding/binary"
	"errors"
	"time"

	"aeolia/internal/mix"
	"aeolia/internal/netsim"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

// Client is one closed-loop workload generator: it fetches the osd/pg map
// from the monitor once, then issues a seeded mix of writes and reads,
// routing each to the placement group's leader and retrying through leader
// changes, crashes, and partitions until the operation is acknowledged.
type Client struct {
	c    *Cluster
	id   int
	ep   *netsim.Endpoint
	core *sim.Core

	members [][]int
	leaders []int // per-pg leader cache: monitor hint refined by responses

	rngCtr uint64
	done   bool

	reply []byte // the endpoint name requests carry, built once
	// buf holds the current write's block. Every attempt's request frame
	// is a copy, so the next op may overwrite it.
	buf []byte

	deadline  sim.Timer // the current attempt's timeout wake-up
	wake      func()    // cl.ep.SignalArrival, bound once: the deadline's callback
	idleWakes uint64    // wake-ups that found neither a frame nor the deadline

	acks []Ack

	// WriteLat and ReadLat record per-operation completion latency (first
	// issue to acknowledgement, retries included).
	WriteLat, ReadLat []time.Duration

	// Stats.
	Reads, Timeouts, Retries uint64
}

func newClient(c *Cluster, id int) *Client {
	cl := &Client{c: c, id: id, ep: c.Fab.Endpoint(clientName(id)),
		core: c.M.Eng.Core(c.cfg.Nodes + 1 + id)}
	cl.reply = []byte(cl.ep.Name())
	cl.wake = cl.ep.SignalArrival
	cl.ep.BindCore(cl.core)
	return cl
}

// Acks returns the client's observed write acknowledgements.
func (cl *Client) Acks() []Ack { return cl.acks }

func (cl *Client) rand() uint64 {
	cl.rngCtr++
	return mix.SplitMix64(cl.c.cfg.Seed ^ uint64(cl.id+1)*0x9e3779b97f4a7c15 ^ cl.rngCtr)
}

func (cl *Client) coreID(env *sim.Env) int {
	if c := env.Task().Core(); c != nil {
		return c.ID
	}
	return -1
}

func (cl *Client) run(env *sim.Env) {
	defer func() { cl.done = true }()
	if !cl.fetchMap(env) {
		return
	}
	// The LBA space is deliberately small so reads land on recently written
	// blocks — the read-after-committed-write invariant needs interplay.
	const lbaSpace = 64
	for seq := 0; seq < cl.c.cfg.OpsPerClient; seq++ {
		if cl.c.stopped {
			return
		}
		r := cl.rand()
		pg := int(r % uint64(cl.c.cfg.PGs))
		lba := (r >> 32) % lbaSpace
		reqid := uint32(cl.id)<<24 | uint32(seq)
		if int((r>>16)%100) < cl.c.cfg.writePct() {
			cl.doOp(env, request{Op: OpWrite, ID: reqid, PG: uint16(pg), LBA: lba,
				Data: cl.payload(reqid), Reply: cl.reply})
		} else {
			cl.doOp(env, request{Op: OpRead, ID: reqid, PG: uint16(pg), LBA: lba,
				Reply: cl.reply})
		}
	}
}

// payload derives a deterministic, per-request-unique block body into the
// client's buffer: byte i is byte i%8 of the (i/8+1)-th splitmix64 step from
// the request's seed, so each step is stored whole, little-endian.
func (cl *Client) payload(reqid uint32) []byte {
	n := cl.c.cfg.payloadBytes()
	if cap(cl.buf) < n {
		cl.buf = make([]byte, n)
	}
	b := cl.buf[:n]
	x := mix.SplitMix64(cl.c.cfg.Seed ^ uint64(reqid)<<13 ^ 0xA3)
	for i := 0; i < n; i += 8 {
		x = mix.SplitMix64(x)
		if n-i >= 8 {
			binary.LittleEndian.PutUint64(b[i:], x)
			continue
		}
		for j := i; j < n; j++ {
			b[j] = byte(x >> ((j - i) * 8))
		}
	}
	return b
}

// fetchMap pulls the osd/pg map from the monitor, retrying on timeout.
func (cl *Client) fetchMap(env *sim.Env) bool {
	for {
		if cl.c.stopped {
			return false
		}
		cl.send(env, "mon", encodeMonReq())
		m, ok := cl.awaitMap(env, env.Now()+cl.c.cfg.clientTimeout())
		if ok {
			cl.members = m.Members
			cl.leaders = append([]int(nil), m.Leaders...)
			return true
		}
		cl.Timeouts++
	}
}

// doOp drives one operation to completion: route to the pg's believed
// leader, follow NotLeader hints, rotate through the membership on timeout,
// and back off a tick when the group is mid-election.
func (cl *Client) doOp(env *sim.Env, req request) {
	eng := cl.c.M.Eng
	pg := int(req.PG)
	ms := cl.members[pg]
	if req.Op == OpRead {
		// The read's linearizability floor freezes NOW, at issue time: any
		// serve of this read must reflect at least every write acknowledged
		// before this instant (the serve may be later, after retries).
		if tr := eng.Tracer; tr != nil {
			tr.Emit(env.Now(), trace.ClusterReadStart, cl.coreID(env), pg, req.ID, req.LBA, 0)
		}
	}
	rot := 0
	target := cl.leaders[pg]
	if target < 0 {
		target = ms[0]
		rot = 1
	}
	start := env.Now()
	for {
		if cl.c.stopped {
			return
		}
		// Each attempt sends a frame of its own, from this client's free
		// list: the node releases a request frame once it has handled it,
		// and a timed-out attempt's frame may still be in flight when the
		// next one goes out, so no attempt may reuse another's.
		cl.send(env, cl.c.osdNames[target], req.encode(cl.ep.Frame(req.size())))
		resp, ok := cl.await(env, env.Now()+cl.c.cfg.clientTimeout(), req.ID)
		if !ok {
			if cl.c.stopped {
				return
			}
			cl.Timeouts++
			cl.Retries++
			cl.leaders[pg] = -1
			target = ms[rot%len(ms)]
			rot++
			continue
		}
		switch resp.Status {
		case StatusOK:
			cl.leaders[pg] = target
			if req.Op == OpRead {
				cl.Reads++
				cl.ReadLat = append(cl.ReadLat, env.Now()-start)
				return
			}
			cl.WriteLat = append(cl.WriteLat, env.Now()-start)
			cl.acks = append(cl.acks, Ack{PG: pg, Index: resp.Index, LBA: req.LBA,
				Hash: resp.Hash, At: env.Now()})
			if tr := eng.Tracer; tr != nil {
				tr.Emit(env.Now(), trace.ClusterAck, cl.coreID(env), pg, req.ID, req.LBA,
					resp.Index<<32|uint64(resp.Hash))
			}
			return
		case StatusNotLeader:
			cl.Retries++
			if h := int(resp.Leader); h >= 0 && h != target {
				target = h
				cl.leaders[pg] = h
				continue
			}
			// No better hint: the group is likely mid-election. Wait a raft
			// tick before probing the next member.
			cl.leaders[pg] = -1
			target = ms[rot%len(ms)]
			rot++
			env.Sleep(tickInterval)
		default:
			cl.Retries++
			target = ms[rot%len(ms)]
			rot++
			env.Sleep(tickInterval)
		}
	}
}

// await receives until a response with the wanted request id arrives or the
// deadline passes. Stale responses (earlier timed-out attempts, duplicate
// acknowledgements of retried commands) are discarded by id mismatch here
// and by the caller having moved on.
func (cl *Client) await(env *sim.Env, deadline time.Duration, want uint32) (response, bool) {
	defer cl.armDeadline(env, deadline).Cancel()
	for {
		m := cl.recv(env, deadline)
		if m == nil {
			return response{}, false
		}
		r, err := decodeResponse(m.Payload)
		// The client keeps a response's header, not its data: the frame
		// goes back to the node that sent it.
		r.Data = nil
		cl.ep.Release(m)
		if err == nil && r.ID == want {
			return r, true
		}
	}
}

func (cl *Client) awaitMap(env *sim.Env, deadline time.Duration) (monResp, bool) {
	defer cl.armDeadline(env, deadline).Cancel()
	for {
		m := cl.recv(env, deadline)
		if m == nil {
			return monResp{}, false
		}
		if r, err := decodeMonResp(m.Payload); err == nil {
			return r, true
		}
	}
}

// armDeadline arms the wake-up that ends an attempt's wait. The caller
// cancels it on return: left armed it would fire inside a later attempt's
// wait and wake the client for nothing.
func (cl *Client) armDeadline(env *sim.Env, deadline time.Duration) sim.Timer {
	cl.deadline = env.ScheduleAt(deadline, cl.wake)
	return cl.deadline
}

// recv blocks for the next frame and charges its receive cost; nil means the
// deadline passed or the cluster stopped.
func (cl *Client) recv(env *sim.Env, deadline time.Duration) *netsim.Msg {
	for woke := false; ; woke = true {
		if m := cl.ep.TryRecv(); m != nil {
			env.Exec(netsim.RxCost)
			return m
		}
		if cl.c.stopped || env.Now() >= deadline {
			return nil
		}
		if woke {
			cl.idleWakes++
		}
		c := cl.ep.Arrival()
		if cl.ep.Pending() > 0 || cl.c.stopped {
			continue
		}
		env.BlockOn(c)
	}
}

// send transmits best-effort: overflow is dropped (the op times out and
// retries), other failures are wiring bugs.
func (cl *Client) send(env *sim.Env, dst string, payload []byte) {
	if err := cl.ep.Send(env, dst, payload); err != nil && !errors.Is(err, netsim.ErrOverflow) {
		cl.c.fail(err)
	}
}
