package aeomds

import (
	"testing"

	"aeolia/internal/wire/wiretest"
)

// FuzzDecode holds every aeomds frame decoder to the wiretest contract,
// seeded with one representative frame per magic.
func FuzzDecode(f *testing.F) {
	codecs := []wiretest.Codec{
		{Name: "request",
			Decode: func(b []byte) (any, error) { return DecodeRequest(b) },
			Encode: func(v any) []byte { r := v.(Request); return r.Encode() }},
		{Name: "response",
			Decode: func(b []byte) (any, error) { return DecodeResponse(b) },
			Encode: func(v any) []byte { r := v.(Response); return r.Encode() }},
		{Name: "revoke",
			Decode: func(b []byte) (any, error) { return decodeRevoke(b) },
			Encode: func(v any) []byte { r := v.(revokeFrame); return r.encode() }},
		{Name: "revokeAck",
			Decode: func(b []byte) (any, error) { return decodeRevokeAck(b) },
			Encode: func(v any) []byte { r := v.(revokeAck); return r.encode() }},
		{Name: "peerReq",
			Decode: func(b []byte) (any, error) { return decodePeerReq(b) },
			Encode: func(v any) []byte { r := v.(peerReq); return r.encode() }},
		{Name: "peerResp",
			Decode: func(b []byte) (any, error) { return decodePeerResp(b) },
			Encode: func(v any) []byte { r := v.(peerResp); return r.encode() }},
	}
	f.Add((&Request{ID: 7, Op: OpRename, Flags: FlagWrite, Dir: "/a", Name: "x", Dir2: "/b", Name2: "y", Size: 9, Mode: 0o644, Lease: 3}).Encode())
	f.Add((&Response{ID: 7, Status: StatusErr, Err: "no", Ino: 5, Size: 4096, Mode: 0o755, StripeUnit: 65536, Lease: 3, IsDir: true,
		Nodes: []uint16{0, 2}, Entries: []Dirent{{Name: "f", Ino: 6}, {Name: "d", Ino: 8, Dir: true}}}).Encode())
	f.Add((&revokeFrame{Shard: 1, Lease: 3, Ino: 5}).encode())
	f.Add((&revokeAck{Lease: 3}).encode())
	f.Add((&peerReq{Txn: 11, Kind: peerIngest, Dir: "/b", Name: "y", Ino: 5,
		Meta:   FileMeta{Ino: 5, Size: 4096, Mode: 0o644, StripeUnit: 65536, Nodes: []uint16{1, 3}},
		Leases: []leaseRec{{ID: 3, Ino: 5, Holder: "c1"}}}).encode())
	f.Add((&peerResp{Txn: 11, Status: StatusErr, Err: "exists"}).encode())
	// An empty reply whose trailing entry count claims 2^32-1 rows.
	hostile := (&Response{}).Encode()
	copy(hostile[len(hostile)-4:], "\xff\xff\xff\xff")
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, c := range codecs {
			wiretest.Check(t, b, c)
		}
	})
}
