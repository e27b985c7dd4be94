package aeomds

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"aeolia/internal/netsim"
	"aeolia/internal/sched"
	"aeolia/internal/sim"
)

// encoder is what every frame kind has: its length, and an encode over a
// caller's buffer.
type encoder interface {
	size() int
	encode(b []byte) []byte
}

// TestEncodeIntoDirtyFrame: a recycled frame still holds the longer frame it
// carried last. Every frame kind encoded over such a buffer must be exactly
// its size, reuse the buffer, and match the bytes of a fresh encode.
func TestEncodeIntoDirtyFrame(t *testing.T) {
	long := strings.Repeat("x", 300)
	longResp := &Response{ID: 1, Status: StatusErr, Err: long, Nodes: []uint16{1, 2, 3},
		Entries: []Dirent{{Name: long, Ino: 4}, {Name: long, Ino: 5, Dir: true}}}
	req := &Request{ID: 2, Op: OpOpen, Flags: FlagCreate, Dir: "/a", Name: "f", Mode: 0o644}
	resp := &Response{ID: 2, Ino: 9, Size: 4096, Lease: 3, Nodes: []uint16{0},
		Entries: []Dirent{{Name: "g", Ino: 10}}}
	rv := &revokeFrame{Shard: 2, Lease: 7, Ino: 11}
	ack := &revokeAck{Lease: 7}
	peer := &peerReq{Txn: 2, Kind: peerAttachDir, Dir: "/a/b", Ino: 12}
	pr := &peerResp{Txn: 2}
	for _, c := range []struct {
		name        string
		long, short encoder
		fresh       []byte
	}{
		{"request", &Request{ID: 1, Op: OpRename, Dir: long, Name: long, Dir2: long, Name2: long}, req, req.Encode()},
		{"response", longResp, resp, resp.Encode()},
		{"revoke", longResp, rv, rv.encode(nil)},
		{"revokeAck", longResp, ack, ack.encode(nil)},
		{"peerReq", &peerReq{Txn: 1, Kind: peerIngest, Dir: long, Name: long,
			Meta:   FileMeta{Ino: 4, Nodes: []uint16{1, 2, 3, 0}},
			Leases: []leaseRec{{ID: 1, Ino: 4, Holder: long}, {ID: 2, Ino: 4, Holder: long}}},
			peer, peer.encode(nil)},
		{"peerResp", &peerResp{Txn: 1, Status: StatusErr, Err: long}, pr, pr.encode(nil)},
	} {
		dirty := c.long.encode(make([]byte, 0, c.long.size()))
		if len(dirty) != c.long.size() {
			t.Fatalf("%s: long frame is %d bytes, size() says %d", c.name, len(dirty), c.long.size())
		}
		got := c.short.encode(dirty)
		if len(got) != c.short.size() {
			t.Errorf("%s: %d bytes, size() says %d", c.name, len(got), c.short.size())
		}
		if &got[0] != &dirty[0] {
			t.Errorf("%s: encode did not write into the buffer it was given", c.name)
		}
		if !bytes.Equal(got, c.fresh) {
			t.Errorf("%s: over a dirty buffer\n got % x\nwant % x", c.name, got, c.fresh)
		}
	}
}

// TestStaleReplyOnRecycledFrames: a fake shard answers a client's readdir
// with a stale reply first and then the right one, written into the very
// buffer the client released after decoding the stale one; then, once the
// client has released that too, it scribbles over the buffer the way its
// next frame would. The client must skip the stale reply, return the right
// entries, and keep nothing that aliases either frame.
func TestStaleReplyOnRecycledFrames(t *testing.T) {
	eng := sim.NewEngine(2, sched.NewEEVDF())
	defer eng.Shutdown()
	fab := netsim.New(eng, 1)
	c := NewClient(fab, ClientConfig{ID: 0, Shards: 1})
	shard := fab.Endpoint(ShardEndpoint(0))
	fab.Connect(ClientEndpoint(0), ShardEndpoint(0), testLink)
	fab.Connect(ShardEndpoint(0), ClientEndpoint(0), testLink)
	want := []Dirent{{Name: "new", Ino: 7, Dir: true}}
	var got []Dirent
	var failure error
	fail := func(err error) {
		if failure == nil {
			failure = err
		}
	}
	eng.Spawn("shard", eng.Core(0), func(env *sim.Env) {
		m := shard.Recv(env)
		req, err := DecodeRequest(m.Payload)
		shard.Release(m)
		if err != nil {
			fail(err)
			return
		}
		settle := func() { env.Sleep(50 * time.Microsecond) } // past arrival and the client's release
		send := func(r Response) []byte {
			b := r.encode(shard.Frame(r.size()))
			if err := shard.Send(env, ClientEndpoint(0), b); err != nil {
				fail(err)
			}
			settle()
			return b
		}
		stale := send(Response{ID: req.ID + 100, Entries: []Dirent{{Name: "old", Ino: 9}}})
		right := send(Response{ID: req.ID, Entries: want})
		if &right[0] != &stale[0] {
			fail(errors.New("the right reply did not reuse the stale reply's buffer: the trap is not armed"))
			return
		}
		next := shard.Frame(len(right))
		if &next[:1][0] != &right[0] {
			fail(errors.New("the client did not release the right reply"))
			return
		}
		full := next[:cap(next)]
		for i := range full {
			full[i] = 0xFF
		}
	})
	eng.Spawn("client", eng.Core(1), func(env *sim.Env) {
		ents, err := c.Readdir(env, "/d")
		if err != nil {
			fail(err)
		}
		got = ents
	})
	eng.Run(time.Second)
	if failure != nil {
		t.Fatal(failure)
	}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("readdir = %+v, want %+v", got, want)
	}
}
