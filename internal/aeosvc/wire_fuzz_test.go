package aeosvc

import (
	"testing"

	"aeolia/internal/wire/wiretest"
)

// FuzzDecode holds both aeosvc frame decoders to the wiretest contract,
// seeded with the frames the golden tests pin.
func FuzzDecode(f *testing.F) {
	codecs := []wiretest.Codec{
		{Name: "request",
			Decode: func(b []byte) (any, error) { return DecodeRequest(b) },
			Encode: func(v any) []byte { r := v.(Request); return r.Encode() }},
		{Name: "response",
			Decode: func(b []byte) (any, error) { return DecodeResponse(b) },
			Encode: func(v any) []byte { r := v.(Response); return r.Encode() }},
	}
	f.Add((&Request{ID: 0x1122334455667788, Tenant: 0xAABB, Op: OpRead, Class: 2, FD: 0x0A0B0C0D,
		Off: 0x1020304050607080, Len: 0x11223344, Path: "/x", Data: []byte{0xDE, 0xAD}}).Encode())
	f.Add((&Response{ID: 0x0807060504030201, Status: StatusErr, Value: 0xCAFEBABE, Err: "no", Data: []byte{1, 2, 3}}).Encode())
	f.Add(newReadFrame(make([]byte, 0, respHeader+8), 7, 8).Finish(5))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, c := range codecs {
			wiretest.Check(t, b, c)
		}
	})
}
