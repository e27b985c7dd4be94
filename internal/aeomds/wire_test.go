package aeomds

import (
	"errors"
	"reflect"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	in := Request{
		ID: 7, Op: OpRename, Flags: FlagCreate | FlagWrite,
		Dir: "/a", Name: "f", Dir2: "/b/c", Name2: "g",
		Size: 1 << 40, Mode: 0755, Lease: 0x01000007,
	}
	out, err := DecodeRequest(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("request round trip: %+v != %+v", out, in)
	}
	if _, err := DecodeRequest(in.Encode()[:10]); !errors.Is(err, ErrWire) {
		t.Fatalf("truncated request: %v", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	in := Response{
		ID: 9, Status: StatusOK, Ino: 1<<33 | 5, Size: 4096,
		Mode: 0644, StripeUnit: 16384, Lease: 0x02000001, IsDir: false,
		Nodes: []uint16{3, 0, 1},
		Entries: []Dirent{
			{Name: "x", Ino: 2, Dir: true},
			{Name: "y", Ino: 1<<32 | 9, Dir: false},
		},
	}
	out, err := DecodeResponse(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("response round trip: %+v != %+v", out, in)
	}
	errIn := Response{ID: 1, Status: StatusErr, Err: ErrNotFound.Error()}
	errOut, err := DecodeResponse(errIn.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(wireErr(errOut.Err), ErrNotFound) {
		t.Fatalf("error identity lost across the wire: %q", errOut.Err)
	}
}

func TestControlFrameRoundTrips(t *testing.T) {
	rv := revokeFrame{Shard: 3, Lease: 0x04000002, Ino: 1<<34 | 7}
	gotRv, err := decodeRevoke(rv.encode(nil))
	if err != nil || gotRv != rv {
		t.Fatalf("revoke round trip: %+v, %v", gotRv, err)
	}
	ack := revokeAck{Lease: 0x04000002}
	gotAck, err := decodeRevokeAck(ack.encode(nil))
	if err != nil || gotAck != ack {
		t.Fatalf("revoke-ack round trip: %+v, %v", gotAck, err)
	}
	p := peerReq{
		Txn: 1<<40 | 3, Kind: peerIngest, Dir: "/dst", Name: "n", Ino: 0,
		Meta:   FileMeta{Ino: 1<<32 | 2, Size: 100, Mode: 0644, StripeUnit: 16384, Nodes: []uint16{1, 2}},
		Leases: []leaseRec{{ID: 0x01000001, Ino: 1<<32 | 2, Holder: "mdc0"}},
	}
	gotP, err := decodePeerReq(p.encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, gotP) {
		t.Fatalf("peer request round trip: %+v != %+v", gotP, p)
	}
	pr := peerResp{Txn: 1<<40 | 3, Status: StatusErr, Err: ErrExists.Error()}
	gotPr, err := decodePeerResp(pr.encode(nil))
	if err != nil || gotPr != pr {
		t.Fatalf("peer response round trip: %+v, %v", gotPr, err)
	}
}
