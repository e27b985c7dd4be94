// Package aeosvc is the storage service front-end of the Aeolia
// reproduction: a binary request/response protocol over internal/netsim,
// per-connection state machines with request pipelining, per-tenant
// admission control (token buckets + weighted fair dequeue), and a worker
// pool that executes admitted requests against AeoFS through the
// uintr-driven driver hot path.
//
// The service edge reuses the paper's notification machinery end to end:
// the dispatcher's network arrivals are posted into a UPID and delivered as
// user interrupts (in-schedule) or via the kernel out-of-schedule path —
// a network completion is handled exactly like an NVMe completion.
package aeosvc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"aeolia/internal/wire"
)

// Op is a wire opcode.
type Op uint8

// The request opcodes: POSIX-style file ops.
const (
	OpInvalid Op = iota
	OpOpen
	OpClose
	OpRead
	OpWrite
	OpFsync

	numOps
)

var opNames = [numOps]string{
	OpInvalid: "invalid",
	OpOpen:    "open",
	OpClose:   "close",
	OpRead:    "read",
	OpWrite:   "write",
	OpFsync:   "fsync",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Status is a wire response status.
type Status uint8

const (
	// StatusOK: the operation succeeded.
	StatusOK Status = iota
	// StatusThrottled: admission control shed the request; the client
	// should back off and retry with a fresh request id.
	StatusThrottled
	// StatusErr: the operation failed; Response.Err carries the message.
	StatusErr
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusThrottled:
		return "throttled"
	case StatusErr:
		return "err"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Wire format magics (first byte of every frame).
const (
	reqMagic  = 0xA7
	respMagic = 0xA8
)

// IsResponse reports whether frame is a service response, for clients whose
// endpoint also receives other protocols' frames.
func IsResponse(frame []byte) bool { return len(frame) > 0 && frame[0] == respMagic }

// ErrWire is wrapped by every decode failure.
var ErrWire = errors.New("aeosvc: malformed frame")

// Request is one client request.
//
// Wire layout (little-endian):
//
//	magic(1) op(1) tenant(2) id(8) fd(4) off(8) len(4) plen(2) dlen(4) class(1) path data
type Request struct {
	ID     uint64 // unique per connection (until replied)
	Tenant uint16
	Op     Op
	Class  uint8  // requested priority class (uintr.Class); the server's tenant table is authoritative
	FD     uint32 // file handle (close/read/write/fsync)
	Off    uint64 // file offset (read/write)
	Len    uint32 // read length
	Path   string // open path
	Data   []byte // write payload
}

const reqHeader = 1 + 1 + 2 + 8 + 4 + 8 + 4 + 2 + 4 + 1

// Encode serializes the request into a frame of its own.
func (r *Request) Encode() []byte { return r.EncodeInto(make([]byte, 0, r.Size())) }

// Size returns the length of the request's frame.
func (r *Request) Size() int { return reqHeader + len(r.Path) + len(r.Data) }

// EncodeInto writes the frame over b[:0]: a client passes a buffer from its
// endpoint's free list, which the server releases once the reply is out.
func (r *Request) EncodeInto(b []byte) []byte {
	return wire.Into(b).
		U8(reqMagic).U8(byte(r.Op)).U16(r.Tenant).U64(r.ID).
		U32(r.FD).U64(r.Off).U32(r.Len).
		U16(uint16(len(r.Path))).U32(uint32(len(r.Data))).U8(r.Class).
		Str(r.Path).Bytes(r.Data).Frame()
}

// DecodeRequest parses one request frame. The request's Data aliases b.
func DecodeRequest(b []byte) (Request, error) {
	var r Request
	if len(b) < reqHeader {
		return r, fmt.Errorf("%w: request header truncated (%d bytes)", ErrWire, len(b))
	}
	d := wire.NewReader(b)
	if magic := d.U8(); magic != reqMagic {
		return r, fmt.Errorf("%w: bad request magic %#x", ErrWire, magic)
	}
	r.Op = Op(d.U8())
	if r.Op == OpInvalid || r.Op >= numOps {
		return r, fmt.Errorf("%w: unknown opcode %d", ErrWire, uint8(r.Op))
	}
	r.Tenant = d.U16()
	r.ID = d.U64()
	r.FD = d.U32()
	r.Off = d.U64()
	r.Len = d.U32()
	plen := int(d.U16())
	dlen := int(d.U32())
	r.Class = d.U8()
	if len(b) != reqHeader+plen+dlen {
		return r, fmt.Errorf("%w: request body %d bytes, header promises %d",
			ErrWire, len(b)-reqHeader, plen+dlen)
	}
	r.Path = d.Str(plen)
	r.Data = d.View(dlen)
	return r, nil
}

// Response is one server reply.
//
// Wire layout (little-endian):
//
//	magic(1) status(1) elen(2) id(8) value(4) dlen(4) err data
type Response struct {
	ID     uint64
	Status Status
	Value  uint32 // open: fd; read/write: byte count
	Err    string // status == StatusErr
	Data   []byte // read payload
}

const respHeader = 1 + 1 + 2 + 8 + 4 + 4

// Encode serializes the response into a frame of its own.
func (r *Response) Encode() []byte { return r.encode(make([]byte, 0, r.size())) }

func (r *Response) size() int { return respHeader + len(r.Err) + len(r.Data) }

// encode writes the frame over b[:0]: the server passes a buffer from its
// endpoint's free list, which the client releases once decoded.
func (r *Response) encode(b []byte) []byte {
	return wire.Into(b).
		U8(respMagic).U8(byte(r.Status)).U16(uint16(len(r.Err))).
		U64(r.ID).U32(r.Value).U32(uint32(len(r.Data))).
		Str(r.Err).Bytes(r.Data).Frame()
}

// readFrame is a pre-sized StatusOK read response. The whole frame is
// allocated before the file system runs and the payload region is handed to
// ReadAt, so the page cache's copy-out lands directly in the wire bytes.
// The generic path (Response.Data + Encode) would stage the data in a
// scratch buffer and copy it a second time into the frame; this type is
// what makes the service read path one-copy end to end.
type readFrame struct {
	frame []byte
}

// Response wire offsets (see the layout comment on Response).
const (
	respValueOff = 1 + 1 + 2 + 8 // value(4)
	respDlenOff  = respValueOff + 4
)

// newReadFrame lays a StatusOK response frame with room for dataCap payload
// bytes over buf, whose capacity must hold it (the server passes a buffer
// from its endpoint's free list). Fill Payload(), then Finish(n) with the
// byte count actually read.
func newReadFrame(buf []byte, id uint64, dataCap int) *readFrame {
	b := buf[:respHeader+dataCap]
	b[0] = respMagic
	b[1] = byte(StatusOK)
	binary.LittleEndian.PutUint16(b[2:], 0) // elen: OK replies carry no error
	binary.LittleEndian.PutUint64(b[4:], id)
	// value and dlen are patched by Finish once n is known.
	return &readFrame{frame: b}
}

// Payload is the frame's data region, sized to the request's read length.
func (f *readFrame) Payload() []byte { return f.frame[respHeader:] }

// Finish records the bytes actually read (short reads at EOF trim the
// frame) and returns the finished wire frame. The result is byte-identical
// to Response{ID, Value: n, Data: payload[:n]}.Encode().
func (f *readFrame) Finish(n int) []byte {
	binary.LittleEndian.PutUint32(f.frame[respValueOff:], uint32(n))
	binary.LittleEndian.PutUint32(f.frame[respDlenOff:], uint32(n))
	return f.frame[:respHeader+n]
}

// DecodeResponse parses one response frame. The response's Data aliases b.
func DecodeResponse(b []byte) (Response, error) {
	var r Response
	if len(b) < respHeader {
		return r, fmt.Errorf("%w: response header truncated (%d bytes)", ErrWire, len(b))
	}
	d := wire.NewReader(b)
	if magic := d.U8(); magic != respMagic {
		return r, fmt.Errorf("%w: bad response magic %#x", ErrWire, magic)
	}
	r.Status = Status(d.U8())
	elen := int(d.U16())
	r.ID = d.U64()
	r.Value = d.U32()
	dlen := int(d.U32())
	if len(b) != respHeader+elen+dlen {
		return r, fmt.Errorf("%w: response body %d bytes, header promises %d",
			ErrWire, len(b)-respHeader, elen+dlen)
	}
	r.Err = d.Str(elen)
	r.Data = d.View(dlen)
	return r, nil
}
