package aeomds

import (
	"errors"
	"fmt"

	"aeolia/internal/aeosvc"
	"aeolia/internal/netsim"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

// Data-server response frames (aeosvc) share the client endpoint with MDS
// replies and revokes; dispatch keys on the leading byte.
const svcRespMagic = 0xA8

// ErrNotOpen is returned by data I/O on a path with no live layout.
var ErrNotOpen = errors.New("aeomds: path not open")

// ErrStaleLayout is returned when the layout lease was revoked under the
// client; reopen to get a fresh layout.
var ErrStaleLayout = errors.New("aeomds: layout lease revoked")

// ClientConfig wires a Client to the cluster.
type ClientConfig struct {
	// ID names the client endpoint "mdc<ID>".
	ID int
	// Shards is the MDS shard count (request routing).
	Shards int
	// DataEndpoints maps stripe-node index → data-server endpoint name.
	DataEndpoints []string
	// Tenant is stamped into data-server requests.
	Tenant uint16
}

// layout is one cached open file: the lease, extent map, and per-node
// object handles. Data I/O uses only this state — no MDS round trips.
type layout struct {
	dir, name  string
	shard      int // granting shard at open time (release routing)
	lease      uint32
	ino        uint64
	size       uint64 // local size view, flushed on release
	stripeUnit uint32
	nodes      []uint16
	fds        map[uint16]uint32 // stripe-node index → object fd
	refs       int
	revoked    bool
}

// Client is an MDS client: metadata operations go to the owning shard;
// data I/O goes directly to the data servers named in the layout.
type Client struct {
	eng     *sim.Engine
	fab     *netsim.Fabric
	cfg     ClientConfig
	ep      *netsim.Endpoint
	nextID  uint64
	layouts map[string]*layout

	// MetaOps / DataOps count completed round trips; Revokes counts
	// lease revocations honored.
	MetaOps, DataOps, Revokes uint64
}

// NewClient builds a client endpoint on the fabric.
func NewClient(fab *netsim.Fabric, cfg ClientConfig) *Client {
	return &Client{
		eng:     fab.Engine(),
		fab:     fab,
		cfg:     cfg,
		ep:      fab.Endpoint(ClientEndpoint(cfg.ID)),
		layouts: make(map[string]*layout),
	}
}

// ClientEndpoint returns client id's fabric endpoint name.
func ClientEndpoint(id int) string { return fmt.Sprintf("mdc%d", id) }

// Endpoint returns the client's endpoint (link wiring).
func (c *Client) Endpoint() *netsim.Endpoint { return c.ep }

func (c *Client) emit(env *sim.Env, typ trace.Type, qid int, cid uint32, ino, aux uint64) {
	if tr := c.eng.Tracer; tr != nil {
		core := -1
		if cr := env.Task().Core(); cr != nil {
			core = cr.ID
		}
		tr.Emit(env.Now(), typ, core, qid, cid, ino, aux)
	}
}

// handleRevoke honors a lease revocation: invalidate any matching layout
// and ack the issuing shard. Runs inline inside any receive loop, so a
// client parked on an unrelated call still revokes promptly.
func (c *Client) handleRevoke(env *sim.Env, payload []byte) error {
	rv, err := decodeRevoke(payload)
	if err != nil {
		return err
	}
	for _, lay := range c.layouts {
		if lay.lease == rv.Lease {
			lay.revoked = true
		}
	}
	c.Revokes++
	ack := revokeAck{Lease: rv.Lease}
	return c.ep.Send(env, ShardEndpoint(int(rv.Shard)), ack.encode())
}

// recv blocks for the next frame, honoring interleaved revokes.
func (c *Client) recv(env *sim.Env) (*netsim.Msg, error) {
	for {
		m := c.ep.TryRecv()
		if m == nil {
			ch := c.ep.Arrival()
			if c.ep.Pending() == 0 {
				env.BlockOn(ch)
			}
			continue
		}
		env.Exec(netsim.RxCost)
		if len(m.Payload) > 0 && m.Payload[0] == magicRevoke {
			if err := c.handleRevoke(env, m.Payload); err != nil {
				return nil, err
			}
			continue
		}
		return m, nil
	}
}

// call runs one metadata round trip against a shard.
func (c *Client) call(env *sim.Env, shard int, req Request) (Response, error) {
	c.nextID++
	req.ID = c.nextID
	if err := c.ep.Send(env, ShardEndpoint(shard), req.Encode()); err != nil {
		return Response{}, err
	}
	for {
		m, err := c.recv(env)
		if err != nil {
			return Response{}, err
		}
		if m.Payload[0] != magicResp {
			return Response{}, fmt.Errorf("%w: unexpected magic %#x awaiting mds reply", ErrWire, m.Payload[0])
		}
		resp, err := DecodeResponse(m.Payload)
		if err != nil {
			return Response{}, err
		}
		if resp.ID != req.ID {
			continue // stale reply from an aborted exchange
		}
		c.MetaOps++
		if resp.Status != StatusOK {
			return resp, wireErr(resp.Err)
		}
		return resp, nil
	}
}

// svcCall runs one data-server round trip. A reply's data is copied into
// dst (n bytes) and its frame handed back to the data server, whose next
// reply may be written into it; the returned Response carries no Data.
func (c *Client) svcCall(env *sim.Env, node uint16, req aeosvc.Request, dst []byte) (aeosvc.Response, int, error) {
	c.nextID++
	req.ID = c.nextID
	req.Tenant = c.cfg.Tenant
	if err := c.ep.Send(env, c.cfg.DataEndpoints[node], req.Encode()); err != nil {
		return aeosvc.Response{}, 0, err
	}
	for {
		m, err := c.recv(env)
		if err != nil {
			return aeosvc.Response{}, 0, err
		}
		if m.Payload[0] != svcRespMagic {
			return aeosvc.Response{}, 0, fmt.Errorf("%w: unexpected magic %#x awaiting data reply", ErrWire, m.Payload[0])
		}
		resp, err := aeosvc.DecodeResponse(m.Payload)
		if err != nil {
			return aeosvc.Response{}, 0, err
		}
		n := copy(dst, resp.Data)
		resp.Data = nil
		c.ep.Release(m)
		if resp.ID != req.ID {
			continue
		}
		c.DataOps++
		if resp.Status != aeosvc.StatusOK {
			return resp, 0, fmt.Errorf("aeomds: data node %d: %s", node, resp.Err)
		}
		return resp, n, nil
	}
}

// route returns the shard owning dirPath.
func (c *Client) route(dirPath string) int { return ShardOf(dirPath, c.cfg.Shards) }

// Open fetches (or refreshes) a layout lease for path. After Open, reads
// and writes go straight to the data servers — the MDS is off the data
// path. Repeated opens share the cached layout.
func (c *Client) Open(env *sim.Env, path string, create, write bool) error {
	if lay := c.layouts[path]; lay != nil && !lay.revoked {
		lay.refs++
		return nil
	}
	delete(c.layouts, path) // drop a revoked husk, if any
	dir, name := SplitPath(path)
	var flags uint8
	if create {
		flags |= FlagCreate
	}
	if write {
		flags |= FlagWrite
	}
	shard := c.route(dir)
	resp, err := c.call(env, shard, Request{Op: OpOpen, Flags: flags, Dir: dir, Name: name})
	if err != nil {
		return err
	}
	c.layouts[path] = &layout{
		dir: dir, name: name, shard: shard,
		lease: resp.Lease, ino: resp.Ino, size: resp.Size,
		stripeUnit: resp.StripeUnit, nodes: resp.Nodes,
		fds: make(map[uint16]uint32), refs: 1,
	}
	return nil
}

// Close drops one open reference; the last close releases the lease and
// flushes the client's size view to the MDS.
func (c *Client) Close(env *sim.Env, path string) error {
	lay := c.layouts[path]
	if lay == nil {
		return ErrNotOpen
	}
	lay.refs--
	if lay.refs > 0 {
		return nil
	}
	delete(c.layouts, path)
	if lay.revoked {
		return nil // the lease is already dead; nothing to return
	}
	_, err := c.call(env, lay.shard, Request{
		Op: OpRelease, Dir: lay.dir, Name: lay.name, Lease: lay.lease, Size: lay.size,
	})
	return err
}

// objPath names the per-file object on each data node.
func objPath(ino uint64) string { return fmt.Sprintf("/o%x", ino) }

// ensureFD lazily opens the striped object on a data node.
func (c *Client) ensureFD(env *sim.Env, lay *layout, node uint16) (uint32, error) {
	if fd, ok := lay.fds[node]; ok {
		return fd, nil
	}
	resp, _, err := c.svcCall(env, node, aeosvc.Request{Op: aeosvc.OpOpen, Path: objPath(lay.ino)}, nil)
	if err != nil {
		return 0, err
	}
	lay.fds[node] = resp.Value
	return resp.Value, nil
}

// stripeSpan is one contiguous run of a file range on a single data node.
type stripeSpan struct {
	node     uint16
	localOff uint64 // offset inside the node-local object (RAID-0 packing)
	n        uint32
}

// spans splits [off, off+n) into per-node object spans.
func (lay *layout) spans(off uint64, n uint32) []stripeSpan {
	su := uint64(lay.stripeUnit)
	w := uint64(len(lay.nodes))
	var out []stripeSpan
	for n > 0 {
		stripe := off / su
		in := off % su
		take := su - in
		if uint64(n) < take {
			take = uint64(n)
		}
		out = append(out, stripeSpan{
			node:     lay.nodes[stripe%w],
			localOff: (stripe/w)*su + in,
			n:        uint32(take),
		})
		off += take
		n -= uint32(take)
	}
	return out
}

func (c *Client) liveLayout(path string) (*layout, error) {
	lay := c.layouts[path]
	if lay == nil {
		return nil, ErrNotOpen
	}
	if lay.revoked {
		return nil, ErrStaleLayout
	}
	return lay, nil
}

// ReadAt reads p from the file at off, striping across the data servers
// named in the layout. Returns the bytes actually found (a short read
// means the tail is unwritten).
func (c *Client) ReadAt(env *sim.Env, path string, p []byte, off uint64) (int, error) {
	lay, err := c.liveLayout(path)
	if err != nil {
		return 0, err
	}
	got := 0
	for _, sp := range lay.spans(off, uint32(len(p))) {
		fd, err := c.ensureFD(env, lay, sp.node)
		if err != nil {
			return got, err
		}
		// Any round trip above may have delivered a revoke; stop the
		// moment the lease dies — I/O after a completed revoke is the
		// violation the trace analyzer hunts.
		if lay.revoked {
			return got, ErrStaleLayout
		}
		c.emit(env, trace.MDSDataIO, int(sp.node), lay.lease, lay.ino, uint64(sp.n))
		_, n, err := c.svcCall(env, sp.node, aeosvc.Request{
			Op: aeosvc.OpRead, FD: fd, Off: sp.localOff, Len: sp.n,
		}, p[got:])
		if err != nil {
			return got, err
		}
		got += n
		if uint32(n) < sp.n {
			return got, nil
		}
	}
	return got, nil
}

// WriteAt writes p at off, striping across the data servers.
func (c *Client) WriteAt(env *sim.Env, path string, p []byte, off uint64) (int, error) {
	lay, err := c.liveLayout(path)
	if err != nil {
		return 0, err
	}
	done := 0
	for _, sp := range lay.spans(off, uint32(len(p))) {
		fd, err := c.ensureFD(env, lay, sp.node)
		if err != nil {
			return done, err
		}
		if lay.revoked {
			return done, ErrStaleLayout
		}
		c.emit(env, trace.MDSDataIO, int(sp.node), lay.lease, lay.ino, uint64(sp.n))
		if _, _, err := c.svcCall(env, sp.node, aeosvc.Request{
			Op: aeosvc.OpWrite, FD: fd, Off: sp.localOff, Data: p[done : done+int(sp.n)],
		}, nil); err != nil {
			return done, err
		}
		done += int(sp.n)
	}
	if end := off + uint64(done); end > lay.size {
		lay.size = end
	}
	return done, nil
}

// Stat looks a path up without taking a lease.
func (c *Client) Stat(env *sim.Env, path string) (Response, error) {
	dir, name := SplitPath(path)
	return c.call(env, c.route(dir), Request{Op: OpLookup, Dir: dir, Name: name})
}

// Mkdir creates a directory.
func (c *Client) Mkdir(env *sim.Env, path string) error {
	dir, name := SplitPath(path)
	_, err := c.call(env, c.route(dir), Request{Op: OpMkdir, Dir: dir, Name: name})
	return err
}

// Unlink removes a file. Outstanding leases on it are revoked by the MDS.
func (c *Client) Unlink(env *sim.Env, path string) error {
	dir, name := SplitPath(path)
	_, err := c.call(env, c.route(dir), Request{Op: OpUnlink, Dir: dir, Name: name})
	return err
}

// Readdir lists a directory.
func (c *Client) Readdir(env *sim.Env, dirPath string) ([]Dirent, error) {
	resp, err := c.call(env, c.route(dirPath), Request{Op: OpReaddir, Dir: dirPath})
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// Rename moves src to dst. The request goes to the source directory's
// shard, which coordinates with the destination shard if they differ.
func (c *Client) Rename(env *sim.Env, src, dst string) error {
	sd, sn := SplitPath(src)
	dd, dn := SplitPath(dst)
	_, err := c.call(env, c.route(sd), Request{
		Op: OpRename, Dir: sd, Name: sn, Dir2: dd, Name2: dn,
	})
	return err
}

// Truncate sets a file's size. All layout leases on it (including this
// client's) are revoked.
func (c *Client) Truncate(env *sim.Env, path string, size uint64) error {
	dir, name := SplitPath(path)
	_, err := c.call(env, c.route(dir), Request{Op: OpTruncate, Dir: dir, Name: name, Size: size})
	return err
}

// Chmod updates a file's mode bits.
func (c *Client) Chmod(env *sim.Env, path string, mode uint32) error {
	dir, name := SplitPath(path)
	_, err := c.call(env, c.route(dir), Request{Op: OpChmod, Dir: dir, Name: name, Mode: mode})
	return err
}
