package aeosvc

import (
	"bytes"
	"errors"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{ID: 1, Tenant: 3, Op: OpOpen, Path: "/a.dat"},
		{ID: 2, Op: OpClose, FD: 7},
		{ID: 3, Tenant: 9, Op: OpRead, FD: 7, Off: 4096, Len: 512},
		{ID: 4, Op: OpWrite, FD: 7, Off: 8192, Data: []byte("payload")},
		{ID: 5, Op: OpFsync, FD: 7},
	}
	for _, want := range cases {
		got, err := DecodeRequest(want.Encode())
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Op, err)
		}
		if got.ID != want.ID || got.Tenant != want.Tenant || got.Op != want.Op ||
			got.FD != want.FD || got.Off != want.Off || got.Len != want.Len ||
			got.Path != want.Path || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("%v: round trip mismatch:\n got %+v\nwant %+v", want.Op, got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{ID: 1, Status: StatusOK, Value: 42},
		{ID: 2, Status: StatusThrottled},
		{ID: 3, Status: StatusErr, Err: "aeosvc: bad fd 9"},
		{ID: 4, Status: StatusOK, Data: bytes.Repeat([]byte{0xCD}, 4096)},
	}
	for _, want := range cases {
		got, err := DecodeResponse(want.Encode())
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Status, err)
		}
		if got.ID != want.ID || got.Status != want.Status || got.Value != want.Value ||
			got.Err != want.Err || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("%v: round trip mismatch:\n got %+v\nwant %+v", want.Status, got, want)
		}
	}
}

// TestReadFrameIdentity pins the zero-copy read reply to the generic
// encoder: filling a pre-sized frame and finishing it at n bytes must be
// byte-identical to Response.Encode with the same payload, for full,
// short (EOF-trimmed), and empty reads. The frame is laid over a recycled
// buffer's stale bytes, as the server's free list hands them out.
func TestReadFrameIdentity(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5E, 0x11}, 300)
	for _, n := range []int{len(payload), 123, 1, 0} {
		stale := bytes.Repeat([]byte{0xFF}, respHeader+len(payload))
		f := newReadFrame(stale[:0], 77, len(payload))
		copy(f.Payload(), payload)
		got := f.Finish(n)
		want := (&Response{ID: 77, Status: StatusOK, Value: uint32(n), Data: payload[:n]}).Encode()
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: frame diverged from Encode:\n got %x\nwant %x", n, got, want)
		}
		dec, err := DecodeResponse(got)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if dec.Value != uint32(n) || !bytes.Equal(dec.Data, payload[:n]) {
			t.Fatalf("n=%d: round trip mismatch: %+v", n, dec)
		}
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	good := (&Request{ID: 1, Op: OpRead, FD: 1, Len: 8}).Encode()

	short := good[:reqHeader-1]
	if _, err := DecodeRequest(short); !errors.Is(err, ErrWire) {
		t.Fatalf("truncated header: err = %v, want ErrWire", err)
	}

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 0x00
	if _, err := DecodeRequest(badMagic); !errors.Is(err, ErrWire) {
		t.Fatalf("bad magic: err = %v, want ErrWire", err)
	}

	badOp := append([]byte(nil), good...)
	badOp[1] = byte(numOps)
	if _, err := DecodeRequest(badOp); !errors.Is(err, ErrWire) {
		t.Fatalf("unknown opcode: err = %v, want ErrWire", err)
	}
	badOp[1] = byte(OpInvalid)
	if _, err := DecodeRequest(badOp); !errors.Is(err, ErrWire) {
		t.Fatalf("zero opcode: err = %v, want ErrWire", err)
	}

	trunc := (&Request{ID: 1, Op: OpWrite, Data: []byte("hello")}).Encode()
	if _, err := DecodeRequest(trunc[:len(trunc)-2]); !errors.Is(err, ErrWire) {
		t.Fatalf("truncated body: err = %v, want ErrWire", err)
	}
	if _, err := DecodeRequest(append(trunc, 0)); !errors.Is(err, ErrWire) {
		t.Fatalf("oversized body: err = %v, want ErrWire", err)
	}
}

func TestDecodeResponseErrors(t *testing.T) {
	good := (&Response{ID: 1, Status: StatusOK, Data: []byte("abc")}).Encode()

	if _, err := DecodeResponse(good[:respHeader-1]); !errors.Is(err, ErrWire) {
		t.Fatalf("truncated header: err = %v, want ErrWire", err)
	}
	badMagic := append([]byte(nil), good...)
	badMagic[0] = reqMagic
	if _, err := DecodeResponse(badMagic); !errors.Is(err, ErrWire) {
		t.Fatalf("bad magic: err = %v, want ErrWire", err)
	}
	if _, err := DecodeResponse(good[:len(good)-1]); !errors.Is(err, ErrWire) {
		t.Fatalf("truncated body: err = %v, want ErrWire", err)
	}
}
