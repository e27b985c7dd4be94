package aeomds

import (
	"errors"
	"fmt"

	"aeolia/internal/wire"
)

// Wire magics. Client↔shard traffic uses 0xC1/0xC2, asynchronous lease
// revocation 0xC3/0xC4, and shard↔shard coordination (rename ingest, mkdir
// attach) 0xC5/0xC6. Clients multiplex 0xC2/0xC3 (and aeosvc's data
// responses) on one endpoint, dispatching on the leading magic byte.
const (
	magicReq       = 0xC1
	magicResp      = 0xC2
	magicRevoke    = 0xC3
	magicRevokeAck = 0xC4
	magicPeerReq   = 0xC5
	magicPeerResp  = 0xC6
)

// ErrWire marks malformed MDS frames.
var ErrWire = errors.New("aeomds: malformed wire frame")

// Op is a metadata operation code.
type Op uint8

const (
	OpLookup  Op = iota + 1
	OpOpen       // open-with-layout: returns the extent map and a lease
	OpRelease    // lease release (file close), flushes the client's size
	OpMkdir
	OpUnlink
	OpReaddir
	OpRename
	OpTruncate
	OpChmod
)

var opNames = map[Op]string{
	OpLookup: "lookup", OpOpen: "open", OpRelease: "release",
	OpMkdir: "mkdir", OpUnlink: "unlink", OpReaddir: "readdir",
	OpRename: "rename", OpTruncate: "truncate", OpChmod: "chmod",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Request flag bits.
const (
	FlagCreate = 1 << 0
	FlagWrite  = 1 << 1
)

// Request is one client→shard metadata request.
type Request struct {
	ID    uint64
	Op    Op
	Flags uint8
	Dir   string // parent directory (routes the request)
	Name  string
	Dir2  string // rename destination directory
	Name2 string // rename destination name
	Size  uint64 // truncate / release size
	Mode  uint32 // create mode / chmod bits
	Lease uint32 // release: the lease being returned
}

// Encode serializes the request into a frame of its own.
func (r *Request) Encode() []byte { return r.encode(make([]byte, 0, r.size())) }

// size is the frame's length, field by field in encode's order.
func (r *Request) size() int {
	return 1 + 1 + 1 + 8 + 8 + 4 + 4 + 4*2 + len(r.Dir) + len(r.Name) + len(r.Dir2) + len(r.Name2)
}

// encode writes the frame over b[:0]: the client passes a buffer from its
// endpoint's free list, which the shard releases once decoded.
func (r *Request) encode(b []byte) []byte {
	return wire.Into(b).
		U8(magicReq).U8(uint8(r.Op)).U8(r.Flags).
		U64(r.ID).U64(r.Size).U32(r.Mode).U32(r.Lease).
		U16(uint16(len(r.Dir))).U16(uint16(len(r.Name))).
		U16(uint16(len(r.Dir2))).U16(uint16(len(r.Name2))).
		Str(r.Dir).Str(r.Name).Str(r.Dir2).Str(r.Name2).
		Frame()
}

// DecodeRequest parses a client request frame.
func DecodeRequest(b []byte) (Request, error) {
	d := wire.NewReader(b)
	if d.U8() != magicReq {
		return Request{}, fmt.Errorf("%w: bad request magic", ErrWire)
	}
	var r Request
	r.Op = Op(d.U8())
	r.Flags = d.U8()
	r.ID = d.U64()
	r.Size = d.U64()
	r.Mode = d.U32()
	r.Lease = d.U32()
	dl, nl := int(d.U16()), int(d.U16())
	d2l, n2l := int(d.U16()), int(d.U16())
	r.Dir = d.Str(dl)
	r.Name = d.Str(nl)
	r.Dir2 = d.Str(d2l)
	r.Name2 = d.Str(n2l)
	if err := d.Done(); err != nil {
		return Request{}, fmt.Errorf("%w: request: %v", ErrWire, err)
	}
	return r, nil
}

// Response status codes.
const (
	StatusOK uint8 = iota
	StatusErr
)

// Response is one shard→client reply.
type Response struct {
	ID         uint64
	Status     uint8
	Err        string
	Ino        uint64
	Size       uint64
	Mode       uint32
	StripeUnit uint32
	Lease      uint32
	IsDir      bool
	Nodes      []uint16 // striping map (open)
	Entries    []Dirent // readdir rows
}

// Encode serializes the response into a frame of its own.
func (r *Response) Encode() []byte { return r.encode(make([]byte, 0, r.size())) }

// size is the frame's length, field by field in encode's order.
func (r *Response) size() int {
	n := 1 + 1 + 1 + 3*8 + 3*4 + 2 + len(r.Err) + 2 + 2*len(r.Nodes) + 4
	for _, e := range r.Entries {
		n += 2 + len(e.Name) + 8 + 1
	}
	return n
}

// encode writes the frame over b[:0]: the shard passes a buffer from its
// endpoint's free list, which the client releases once decoded.
func (r *Response) encode(b []byte) []byte {
	w := wire.Into(b).
		U8(magicResp).U8(r.Status).Bool(r.IsDir).
		U64(r.ID).U64(r.Ino).U64(r.Size).
		U32(r.Mode).U32(r.StripeUnit).U32(r.Lease).
		U16(uint16(len(r.Err))).Str(r.Err).
		U16(uint16(len(r.Nodes)))
	for _, n := range r.Nodes {
		w.U16(n)
	}
	w.U32(uint32(len(r.Entries)))
	for _, e := range r.Entries {
		w.U16(uint16(len(e.Name))).Str(e.Name).U64(e.Ino).Bool(e.Dir)
	}
	return w.Frame()
}

// DecodeResponse parses a shard reply frame.
func DecodeResponse(b []byte) (Response, error) {
	d := wire.NewReader(b)
	if d.U8() != magicResp {
		return Response{}, fmt.Errorf("%w: bad response magic", ErrWire)
	}
	var r Response
	r.Status = d.U8()
	r.IsDir = d.Bool()
	r.ID = d.U64()
	r.Ino = d.U64()
	r.Size = d.U64()
	r.Mode = d.U32()
	r.StripeUnit = d.U32()
	r.Lease = d.U32()
	r.Err = d.Str(int(d.U16()))
	if n := d.Count(int(d.U16()), 2); n > 0 {
		r.Nodes = make([]uint16, n)
		for i := range r.Nodes {
			r.Nodes[i] = d.U16()
		}
	}
	if n := d.Count(int(d.U32()), 2+8+1); n > 0 {
		r.Entries = make([]Dirent, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			var e Dirent
			e.Name = d.Str(int(d.U16()))
			e.Ino = d.U64()
			e.Dir = d.Bool()
			r.Entries = append(r.Entries, e)
		}
	}
	if err := d.Done(); err != nil {
		return Response{}, fmt.Errorf("%w: response: %v", ErrWire, err)
	}
	return r, nil
}

// revokeFrame is the shard→holder lease revocation (0xC3): the holder must
// stop data I/O under the lease, drop its layout, and ack to "mds<shard>".
type revokeFrame struct {
	Shard uint16
	Lease uint32
	Ino   uint64
}

func (r *revokeFrame) size() int { return 1 + 2 + 4 + 8 }

func (r *revokeFrame) encode(b []byte) []byte {
	return wire.Into(b).U8(magicRevoke).U16(r.Shard).U32(r.Lease).U64(r.Ino).Frame()
}

func decodeRevoke(b []byte) (revokeFrame, error) {
	d := wire.NewReader(b)
	if d.U8() != magicRevoke {
		return revokeFrame{}, fmt.Errorf("%w: bad revoke magic", ErrWire)
	}
	var r revokeFrame
	r.Shard = d.U16()
	r.Lease = d.U32()
	r.Ino = d.U64()
	if err := d.Done(); err != nil {
		return revokeFrame{}, fmt.Errorf("%w: revoke: %v", ErrWire, err)
	}
	return r, nil
}

// revokeAck (0xC4) confirms a revocation: the holder has invalidated its
// layout.
type revokeAck struct {
	Lease uint32
}

func (r *revokeAck) size() int { return 1 + 4 }

func (r *revokeAck) encode(b []byte) []byte {
	return wire.Into(b).U8(magicRevokeAck).U32(r.Lease).Frame()
}

func decodeRevokeAck(b []byte) (revokeAck, error) {
	d := wire.NewReader(b)
	if d.U8() != magicRevokeAck {
		return revokeAck{}, fmt.Errorf("%w: bad revoke-ack magic", ErrWire)
	}
	var r revokeAck
	r.Lease = d.U32()
	if err := d.Done(); err != nil {
		return revokeAck{}, fmt.Errorf("%w: revoke-ack: %v", ErrWire, err)
	}
	return r, nil
}

// Peer coordination kinds (0xC5).
const (
	peerIngest    = 1 // rename: link an incoming file at the destination
	peerAttachDir = 2 // mkdir: attach directory state on the child's shard
)

// leaseRec ships an active lease alongside a moving file so the
// destination shard adopts revocation duty.
type leaseRec struct {
	ID     uint32
	Ino    uint64
	Holder string
}

// peerReq is one shard→shard coordination request.
type peerReq struct {
	Txn    uint64
	Kind   uint8
	Dir    string // ingest: destination dir; attach: the new dir's path
	Name   string
	Ino    uint64
	Meta   FileMeta // ingest payload
	Leases []leaseRec
}

func (p *peerReq) size() int {
	n := 1 + 1 + 8 + 2 + 2 + len(p.Dir) + len(p.Name) + 8 +
		8 + 8 + 4 + 4 + 2 + 2*len(p.Meta.Nodes) + 2
	for _, l := range p.Leases {
		n += 4 + 8 + 2 + len(l.Holder)
	}
	return n
}

func (p *peerReq) encode(b []byte) []byte {
	w := wire.Into(b).
		U8(magicPeerReq).U8(p.Kind).U64(p.Txn).
		U16(uint16(len(p.Dir))).U16(uint16(len(p.Name))).
		Str(p.Dir).Str(p.Name).U64(p.Ino).
		U64(p.Meta.Ino).U64(p.Meta.Size).U32(p.Meta.Mode).U32(p.Meta.StripeUnit).
		U16(uint16(len(p.Meta.Nodes)))
	for _, n := range p.Meta.Nodes {
		w.U16(n)
	}
	w.U16(uint16(len(p.Leases)))
	for _, l := range p.Leases {
		w.U32(l.ID).U64(l.Ino).U16(uint16(len(l.Holder))).Str(l.Holder)
	}
	return w.Frame()
}

func decodePeerReq(b []byte) (peerReq, error) {
	d := wire.NewReader(b)
	if d.U8() != magicPeerReq {
		return peerReq{}, fmt.Errorf("%w: bad peer magic", ErrWire)
	}
	var p peerReq
	p.Kind = d.U8()
	p.Txn = d.U64()
	dl, nl := int(d.U16()), int(d.U16())
	p.Dir = d.Str(dl)
	p.Name = d.Str(nl)
	p.Ino = d.U64()
	p.Meta.Ino = d.U64()
	p.Meta.Size = d.U64()
	p.Meta.Mode = d.U32()
	p.Meta.StripeUnit = d.U32()
	if n := d.Count(int(d.U16()), 2); n > 0 {
		p.Meta.Nodes = make([]uint16, n)
		for i := range p.Meta.Nodes {
			p.Meta.Nodes[i] = d.U16()
		}
	}
	if n := d.Count(int(d.U16()), 4+8+2); n > 0 {
		p.Leases = make([]leaseRec, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			var l leaseRec
			l.ID = d.U32()
			l.Ino = d.U64()
			l.Holder = d.Str(int(d.U16()))
			p.Leases = append(p.Leases, l)
		}
	}
	if err := d.Done(); err != nil {
		return peerReq{}, fmt.Errorf("%w: peer request: %v", ErrWire, err)
	}
	return p, nil
}

// peerResp is the shard→shard coordination reply.
type peerResp struct {
	Txn    uint64
	Status uint8
	Err    string
}

func (p *peerResp) size() int { return 1 + 1 + 8 + 2 + len(p.Err) }

func (p *peerResp) encode(b []byte) []byte {
	return wire.Into(b).
		U8(magicPeerResp).U8(p.Status).U64(p.Txn).
		U16(uint16(len(p.Err))).Str(p.Err).
		Frame()
}

func decodePeerResp(b []byte) (peerResp, error) {
	d := wire.NewReader(b)
	if d.U8() != magicPeerResp {
		return peerResp{}, fmt.Errorf("%w: bad peer-resp magic", ErrWire)
	}
	var p peerResp
	p.Status = d.U8()
	p.Txn = d.U64()
	p.Err = d.Str(int(d.U16()))
	if err := d.Done(); err != nil {
		return peerResp{}, fmt.Errorf("%w: peer response: %v", ErrWire, err)
	}
	return p, nil
}

// wireErr maps a wire error string back to the canonical namespace errors
// so clients can errors.Is across the fabric.
func wireErr(s string) error {
	switch s {
	case ErrNotFound.Error():
		return ErrNotFound
	case ErrExists.Error():
		return ErrExists
	case ErrIsDir.Error():
		return ErrIsDir
	case ErrNotDir.Error():
		return ErrNotDir
	case ErrAccess.Error():
		return ErrAccess
	case ErrUnsupported.Error():
		return ErrUnsupported
	}
	return errors.New(s)
}
