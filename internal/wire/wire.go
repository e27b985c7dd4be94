// Package wire provides the little-endian binary frame helpers shared by
// the stack's network protocols (aeosvc's storage service, cluster's
// replication frames, aeomds's metadata service). Each protocol keeps its
// own message structs, magics, and validation; this package owns only the
// mechanical byte shuffling — an appending Writer and a bounds-checked
// Reader with one sticky error — so the encode/decode skeleton is written
// once instead of per protocol.
//
// Encoding is position-based little-endian with no implicit framing: a
// Writer emits exactly the fields appended, in order, so protocols that
// predate this package keep byte-identical frames (pinned by golden wire
// tests in aeosvc and cluster).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is wrapped by every Reader failure.
var ErrTruncated = errors.New("wire: truncated frame")

// Writer builds a frame by appending little-endian fields. Methods chain:
//
//	b := wire.NewWriter(32).U8(magic).U16(id).Str(name).Frame()
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given capacity hint.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// Into returns a Writer that assembles its frame over buf[:0]: a buffer
// with room for the whole frame, such as one from the sending endpoint's
// free list, is written in place and nothing is allocated.
func Into(buf []byte) *Writer {
	return &Writer{buf: buf[:0]}
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) *Writer {
	w.buf = append(w.buf, v)
	return w
}

// Bool appends one byte: 1 for true, 0 for false.
func (w *Writer) Bool(v bool) *Writer {
	if v {
		return w.U8(1)
	}
	return w.U8(0)
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) *Writer {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
	return w
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) *Writer {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	return w
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) *Writer {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	return w
}

// Bytes appends raw bytes (no length prefix; the protocol carries lengths
// in its header fields).
func (w *Writer) Bytes(b []byte) *Writer {
	w.buf = append(w.buf, b...)
	return w
}

// Str appends raw string bytes (no length prefix).
func (w *Writer) Str(s string) *Writer {
	w.buf = append(w.buf, s...)
	return w
}

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Frame returns the assembled frame.
func (w *Writer) Frame() []byte { return w.buf }

// Reader walks a frame extracting little-endian fields. The first
// out-of-bounds read sets a sticky error and every later read returns the
// zero value, so decoders can run straight-line and check Err once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// need reserves n more bytes, recording a sticky error when they are not
// there.
func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: want %d byte(s) at offset %d of %d",
			ErrTruncated, n, r.off, len(r.buf))
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Bool reads one byte as a boolean (nonzero = true).
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Bytes reads n raw bytes into a fresh slice, for a decoded value that must
// outlive the frame (View aliases it instead). n == 0 returns nil.
func (r *Reader) Bytes(n int) []byte {
	if n == 0 || !r.need(n) {
		return nil
	}
	v := append([]byte(nil), r.buf[r.off:r.off+n]...)
	r.off += n
	return v
}

// View reads n raw bytes without copying: the result aliases the frame, with
// its capacity clipped so an append cannot reach the bytes after it. Only
// for a decoder that owns the frame and whose callers never write to it.
// n == 0 returns nil.
func (r *Reader) View(n int) []byte {
	if n == 0 || !r.need(n) {
		return nil
	}
	v := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Str reads n raw bytes as a string.
func (r *Reader) Str(n int) string {
	if !r.need(n) {
		return ""
	}
	v := string(r.buf[r.off : r.off+n])
	r.off += n
	return v
}

// Count vets an element count read from the frame before a decoder sizes a
// slice by it: n elements of at least min bytes each must fit in the unread
// bytes, or the frame is truncated — so no count field can make a decoder
// allocate more than the frame's own length justifies. Returns n, or 0 once
// the reader has failed.
func (r *Reader) Count(n, min int) int {
	if r.err == nil && n > (len(r.buf)-r.off)/min {
		r.err = fmt.Errorf("%w: %d element(s) of %d+ byte(s) at offset %d of %d",
			ErrTruncated, n, min, r.off, len(r.buf))
	}
	if r.err != nil {
		return 0
	}
	return n
}

// Remaining returns the unread byte count.
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.buf) - r.off
}

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Done returns the sticky error, or an error if unread bytes remain — for
// protocols whose frames carry no trailing slack.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing byte(s) after frame", len(r.buf)-r.off)
	}
	return nil
}
