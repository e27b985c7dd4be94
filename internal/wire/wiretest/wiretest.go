// Package wiretest holds the contract every frame decoder built on
// internal/wire owes hostile input, so the aeosvc, cluster and aeomds fuzz
// targets check the same three things.
package wiretest

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// Codec adapts one frame type: Decode parses a frame into a value, Encode
// serializes such a value back.
type Codec struct {
	Name   string
	Decode func([]byte) (any, error)
	Encode func(any) []byte
}

// Check runs c on frame b. A panic fails the fuzz run by itself; Check adds
// that decoding allocates no more than the frame's length justifies (a count
// field must not size a slice the bytes cannot fill), and that for every
// accepted frame decode → encode → decode is a fixpoint.
func Check(t *testing.T, b []byte, c Codec) {
	t.Helper()
	// Decoded values are wider than wire bytes (slice headers, ints for
	// u16s); 64x plus a constant covers the densest legal frame. TotalAlloc
	// is process-wide, so an over-limit reading is re-measured: only a
	// decoder that allocates too much every time is at fault.
	limit := uint64(64*len(b) + 4096)
	var v any
	var err error
	for try := 1; ; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err = c.Decode(b)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		if got <= limit {
			break
		}
		if try == 3 {
			t.Fatalf("%s: decoding %d bytes allocated %d (limit %d)", c.Name, len(b), got, limit)
		}
	}
	if err != nil {
		return
	}
	enc := c.Encode(v)
	v2, err := c.Decode(enc)
	if err != nil {
		t.Fatalf("%s: re-encoded frame rejected: %v\nframe %x\nre-encoded %x", c.Name, err, b, enc)
	}
	if !reflect.DeepEqual(v, v2) || !bytes.Equal(enc, c.Encode(v2)) {
		t.Fatalf("%s: decode→encode→decode is not a fixpoint\nframe %x\nfirst  %+v\nsecond %+v", c.Name, b, v, v2)
	}
}
