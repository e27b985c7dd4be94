package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestRoundTrip drives every field kind through a Writer/Reader pair.
func TestRoundTrip(t *testing.T) {
	b := NewWriter(64).
		U8(0xA7).Bool(true).Bool(false).
		U16(0xBEEF).U32(0xDEADBEEF).U64(0x0102030405060708).
		Str("hello").Bytes([]byte{9, 8, 7}).
		Frame()
	r := NewReader(b)
	if got := r.U8(); got != 0xA7 {
		t.Fatalf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := r.U16(); got != 0xBEEF {
		t.Fatalf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0102030405060708 {
		t.Fatalf("U64 = %#x", got)
	}
	if got := r.Str(5); got != "hello" {
		t.Fatalf("Str = %q", got)
	}
	if got := r.Bytes(3); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("Bytes = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// TestLittleEndianLayout pins the byte order — protocols that predate the
// package rely on it for frame compatibility.
func TestLittleEndianLayout(t *testing.T) {
	b := NewWriter(0).U16(0x0201).U32(0x06050403).U64(0x0E0D0C0B0A090807).Frame()
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E}
	if !bytes.Equal(b, want) {
		t.Fatalf("layout = %v, want %v", b, want)
	}
}

// TestStickyError verifies the first truncation poisons the reader and all
// later reads return zero values.
func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2})
	if got := r.U8(); got != 1 {
		t.Fatalf("U8 = %d", got)
	}
	if got := r.U32(); got != 0 {
		t.Fatalf("truncated U32 = %d, want 0", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", r.Err())
	}
	// Later reads stay zero even though one byte technically remains.
	if got := r.U8(); got != 0 {
		t.Fatalf("post-error U8 = %d, want 0", got)
	}
	if r.Remaining() != 0 {
		t.Fatalf("post-error Remaining = %d, want 0", r.Remaining())
	}
	if err := r.Done(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Done = %v, want ErrTruncated", err)
	}
}

// TestDoneTrailing rejects frames with unread slack.
func TestDoneTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	_ = r.U8()
	if err := r.Done(); err == nil {
		t.Fatal("Done accepted 2 trailing bytes")
	}
}

// TestBytesCopies ensures decoded slices do not alias the frame.
func TestBytesCopies(t *testing.T) {
	frame := []byte{1, 2, 3}
	got := NewReader(frame).Bytes(3)
	frame[0] = 99
	if got[0] != 1 {
		t.Fatal("Bytes aliases the input frame")
	}
	if NewReader(frame).Bytes(0) != nil {
		t.Fatal("Bytes(0) should be nil")
	}
}

// TestViewAliasesClipped pins View's contract: no copy, capacity clipped so
// an append cannot write into the rest of the frame, nil for zero bytes, and
// the same sticky truncation error as Bytes.
func TestViewAliasesClipped(t *testing.T) {
	frame := []byte{1, 2, 3, 4}
	r := NewReader(frame)
	got := r.View(2)
	frame[0] = 99
	if got[0] != 99 {
		t.Fatal("View copied the frame")
	}
	if cap(got) != 2 {
		t.Fatalf("View capacity %d, want 2", cap(got))
	}
	_ = append(got, 7)
	if frame[2] != 3 {
		t.Fatal("append to a View overwrote the frame behind it")
	}
	if r.View(0) != nil {
		t.Fatal("View(0) should be nil")
	}
	if r.U8() != 3 {
		t.Fatal("View did not advance the reader")
	}
	if r.View(2) != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("View past the end: err %v", r.Err())
	}
}

// TestCountBoundsElements: a count is accepted only if that many minimum-size
// elements fit in the unread bytes; otherwise the reader fails sticky.
func TestCountBoundsElements(t *testing.T) {
	r := NewReader(make([]byte, 10))
	if got := r.Count(5, 2); got != 5 || r.Err() != nil {
		t.Fatalf("Count(5, 2) over 10 bytes = %d, err %v", got, r.Err())
	}
	if got := r.Count(6, 2); got != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Count(6, 2) over 10 bytes = %d, err %v", got, r.Err())
	}
	if got := r.Count(1, 2); got != 0 {
		t.Fatalf("Count after failure = %d, want 0", got)
	}
}
