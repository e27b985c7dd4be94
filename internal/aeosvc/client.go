package aeosvc

import (
	"fmt"
	"math/rand"
	"time"

	"aeolia/internal/netsim"
	"aeolia/internal/sim"
)

// ClientConfig parameterizes one closed-loop client.
type ClientConfig struct {
	ID     int
	Tenant uint16
	// Class is stamped on every request's wire header. Advisory: the
	// server's tenant table decides the serving class; the stamp makes the
	// client's expectation visible on the wire for audit.
	Class uint8
	// QD is the pipelining depth: requests kept in flight on the single
	// connection (default 1).
	QD int
	// Ops is the number of measured operations to complete.
	Ops int
	// WarmupOps completed before measurement starts are discarded — they
	// absorb the open/prefill convoy every client rig produces at t=0 and
	// any cold-cache transient, which would otherwise dominate p99.9.
	WarmupOps int
	// ReadFrac of the ops are reads (the rest writes).
	ReadFrac float64
	// IOBytes per read/write (default 4096).
	IOBytes int
	// FileBytes is the working-set file size (default 16384).
	FileBytes int
	Seed      int64
}

// A throttled request waits backoff before its retry, doubling per shed up
// to maxBackoff. The cap keeps shed-retry storms bounded.
const (
	backoff    = 200 * time.Microsecond
	maxBackoff = 3200 * time.Microsecond
)

func (c ClientConfig) qd() int {
	if c.QD <= 0 {
		return 1
	}
	return c.QD
}

func (c ClientConfig) ioBytes() int {
	if c.IOBytes <= 0 {
		return 4096
	}
	return c.IOBytes
}

func (c ClientConfig) fileBytes() int {
	if c.FileBytes <= 0 {
		return 16384
	}
	return c.FileBytes
}

// ClientResult is one client's closed-loop measurement.
type ClientResult struct {
	Ops, Bytes, Shed, Retries, Errors uint64
	// Samples are per-op completion latencies (successful attempt only —
	// a shed attempt's wait is charged to the retry, matching how an open
	// client would remeasure).
	Samples    []time.Duration
	Start, End time.Duration
}

// Client drives the service over the fabric: one connection, QD-deep
// pipelining, throttled requests retried with exponential backoff.
type Client struct {
	fab *netsim.Fabric
	svc string
	cfg ClientConfig
	ep  *netsim.Endpoint

	Result ClientResult
}

// slot is one in-flight request awaiting its reply (or its retry time).
// Slots are recycled when their op completes.
type slot struct {
	req     Request
	sentAt  time.Duration
	firstAt time.Duration // when the op was first issued (for End bookkeeping)
	backoff time.Duration
	retryAt time.Duration // > 0: parked until then
	// data backs req.Data for writes. Every send encodes a copy,
	// so it is free again once the op completes.
	data []byte
}

// NewClient creates the client and its fabric endpoint ("c<ID>"). The
// caller wires links both ways between the endpoint and the service.
func NewClient(fab *netsim.Fabric, svc string, cfg ClientConfig) *Client {
	c := &Client{fab: fab, svc: svc, cfg: cfg}
	c.ep = fab.Endpoint(c.EndpointName())
	return c
}

// EndpointName returns the client's fabric endpoint name.
func (c *Client) EndpointName() string { return fmt.Sprintf("c%d", c.cfg.ID) }

// Endpoint returns the client's fabric endpoint.
func (c *Client) Endpoint() *netsim.Endpoint { return c.ep }

// call issues one request and blocks for its reply, retrying throttles with
// backoff. Setup traffic only — the measured loop pipelines instead.
func (c *Client) call(env *sim.Env, req Request, nextID *uint64) (Response, error) {
	wait := backoff
	for {
		req.ID = *nextID
		*nextID++
		if err := c.send(env, &req); err != nil {
			return Response{}, err
		}
		resp, err := c.recv(env)
		if err != nil {
			return Response{}, err
		}
		if resp.ID != req.ID {
			return Response{}, fmt.Errorf("aeosvc: client %d: reply id %d for request %d",
				c.cfg.ID, resp.ID, req.ID)
		}
		if resp.Status == StatusThrottled {
			c.Result.Shed++
			c.Result.Retries++
			env.Sleep(wait)
			wait = min(2*wait, maxBackoff)
			continue
		}
		return resp, nil
	}
}

// send transmits req in a frame from the client's free list; the server
// releases it to that list once the reply is out.
func (c *Client) send(env *sim.Env, req *Request) error {
	return c.ep.Send(env, c.svc, req.EncodeInto(c.ep.Frame(req.Size())))
}

// recv takes the next reply and hands its frame straight back to the
// server: the client keeps a reply's header, and counts the bytes moved by
// its Value, so the returned Data is nil.
func (c *Client) recv(env *sim.Env) (Response, error) {
	m := c.ep.Recv(env)
	resp, err := DecodeResponse(m.Payload)
	resp.Data = nil
	c.ep.Release(m)
	return resp, err
}

// Run executes the closed loop: open a private file, issue cfg.Ops mixed
// operations at depth QD, close, and record latencies. A throttled reply
// parks the op for its backoff and resends under a fresh request id (the
// wire contract: ids are unique until replied).
func (c *Client) Run(env *sim.Env) error {
	cfg := c.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	var nextID uint64 = 1

	path := fmt.Sprintf("/c%d.dat", cfg.ID)
	resp, err := c.call(env, Request{Tenant: cfg.Tenant, Class: cfg.Class, Op: OpOpen, Path: path}, &nextID)
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("aeosvc: client %d: open: %s", cfg.ID, resp.Err)
	}
	fd := resp.Value
	// Preallocate the working set so reads have bytes to find.
	prefill := make([]byte, cfg.fileBytes())
	for i := range prefill {
		prefill[i] = byte(cfg.ID + i)
	}
	resp, err = c.call(env, Request{Tenant: cfg.Tenant, Class: cfg.Class, Op: OpWrite, FD: fd, Data: prefill}, &nextID)
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("aeosvc: client %d: prefill: %s", cfg.ID, resp.Err)
	}

	c.Result.Start = env.Now()
	inflight := make(map[uint64]*slot)
	var parked, free []*slot
	issued, done := 0, 0
	warm := cfg.WarmupOps
	total := cfg.Ops + warm

	// payload returns the slot's data buffer, n bytes long.
	payload := func(s *slot, n int) []byte {
		if cap(s.data) < n {
			s.data = make([]byte, n)
		}
		return s.data[:n]
	}
	mkReq := func(s *slot) Request {
		r := Request{Tenant: cfg.Tenant, Class: cfg.Class}
		// Every op spends one draw before its offset: each seed's op
		// sequence, and with it the load fingerprints and figure goldens,
		// is pinned to that stream position.
		rng.Float64()
		slots := cfg.fileBytes() / cfg.ioBytes()
		if slots < 1 {
			slots = 1
		}
		off := uint64(rng.Intn(slots) * cfg.ioBytes())
		if rng.Float64() < cfg.ReadFrac {
			r.Op = OpRead
			r.FD = fd
			r.Off = off
			r.Len = uint32(cfg.ioBytes())
		} else {
			r.Op = OpWrite
			r.FD = fd
			r.Off = off
			data := payload(s, cfg.ioBytes())
			rng.Read(data)
			r.Data = data
		}
		return r
	}
	send := func(s *slot) error {
		s.req.ID = nextID
		nextID++
		s.sentAt = env.Now()
		s.retryAt = 0
		if err := c.send(env, &s.req); err != nil {
			return err
		}
		inflight[s.req.ID] = s
		return nil
	}

	for done < total {
		// Re-issue parked retries that are due.
		now := env.Now()
		keep := parked[:0]
		for _, s := range parked {
			if s.retryAt <= now {
				if err := send(s); err != nil {
					return err
				}
			} else {
				keep = append(keep, s)
			}
		}
		parked = keep
		// Fill the pipeline with fresh ops.
		for len(inflight) < cfg.qd() && issued < total {
			var s *slot
			if n := len(free); n > 0 {
				s, free = free[n-1], free[:n-1]
			} else {
				s = &slot{}
			}
			s.req, s.firstAt, s.backoff = mkReq(s), env.Now(), backoff
			if err := send(s); err != nil {
				return err
			}
			issued++
		}
		if len(inflight) == 0 {
			if len(parked) == 0 {
				break // everything outstanding already completed
			}
			// Nothing in flight: sleep until the earliest retry is due.
			min := parked[0].retryAt
			for _, s := range parked[1:] {
				if s.retryAt < min {
					min = s.retryAt
				}
			}
			if d := min - env.Now(); d > 0 {
				env.Sleep(d)
			}
			continue
		}
		resp, err := c.recv(env)
		if err != nil {
			return err
		}
		s := inflight[resp.ID]
		if s == nil {
			return fmt.Errorf("aeosvc: client %d: unmatched reply id %d", cfg.ID, resp.ID)
		}
		delete(inflight, resp.ID)
		switch resp.Status {
		case StatusThrottled:
			c.Result.Shed++
			c.Result.Retries++
			s.retryAt = env.Now() + s.backoff
			s.backoff = min(2*s.backoff, maxBackoff)
			parked = append(parked, s)
			continue
		case StatusOK:
			done++
			if done <= warm {
				if done == warm {
					c.Result.Start = env.Now()
				}
				break
			}
			c.Result.Ops++
			// A read's Value is the length of the data it carried; a
			// write's, the bytes stored.
			c.Result.Bytes += uint64(resp.Value)
			c.Result.Samples = append(c.Result.Samples, env.Now()-s.sentAt)
		default:
			c.Result.Errors++
			done++
		}
		s.req = Request{}
		free = append(free, s)
	}

	resp, err = c.call(env, Request{Tenant: cfg.Tenant, Class: cfg.Class, Op: OpClose, FD: fd}, &nextID)
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("aeosvc: client %d: close: %s", cfg.ID, resp.Err)
	}
	c.Result.End = env.Now()
	return nil
}

// Done reports whether the client completed its measured loop.
func (c *Client) Done() bool { return c.Result.End > 0 }
