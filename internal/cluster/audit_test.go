package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"aeolia/internal/mix"
	"aeolia/internal/netsim"
)

// auditConfig is a small single-group cluster whose only client writes.
func auditConfig(payload int) Config {
	return Config{Nodes: 3, PGs: 1, RF: 3, Clients: 1, OpsPerClient: 60, WritePct: 100,
		PayloadBytes: payload, Seed: 5, Link: netsim.Config{Latency: 5 * time.Microsecond}}
}

// stepUntil runs c's engine in 1 µs slices until done holds.
func stepUntil(t *testing.T, c *Cluster, what string, done func() bool) {
	t.Helper()
	eng := c.M.Eng
	for i := 0; !done(); i++ {
		if i > 1_000_000 || c.Err() != nil {
			t.Fatalf("%s: not reached (%v)", what, c.Err())
		}
		eng.Run(eng.Now() + time.Microsecond)
	}
}

// follower returns a member of pg 0 that is not its leader.
func follower(c *Cluster) *OSD {
	for _, id := range c.Members(0) {
		if n := c.nodes[id]; n.groups[0].raft.Leader() != id {
			return n
		}
	}
	return nil
}

// reportsNode reports whether some audit error names node id.
func reportsNode(errs []error, id int, with string) bool {
	for _, e := range errs {
		if s := e.Error(); strings.Contains(s, fmt.Sprintf("node %d", id)) && strings.Contains(s, with) {
			return true
		}
	}
	return false
}

// TestAuditCatchesCorruptFollowerApply flips one byte of the frame a
// follower is about to apply: its log entry aliases the frame, so the byte
// lands in the block it stores. Every member hashes its own applied bytes,
// so VerifyAcks must name that follower and that index.
func TestAuditCatchesCorruptFollowerApply(t *testing.T) {
	c, err := New(auditConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.M.Eng.Shutdown)
	c.Start()
	stepUntil(t, c, "a leader", func() bool { return c.nodes[0].groups[0].raft.Leader() >= 0 })
	f := follower(c)
	g := f.groups[0]
	var idx uint64
	stepUntil(t, c, "a write appended but not applied on the follower", func() bool {
		lg := g.raft.Log()
		for i := g.raft.Applied() + 1; i <= lg.LastIndex(); i++ {
			e, _ := lg.Entry(i)
			if cmd, err := decodeCommand(e.Data); err == nil && cmd.Op == OpWrite && len(e.Data) > 0 {
				e.Data[len(e.Data)-1] ^= 0x5A // the last byte of the block
				idx = i
				return true
			}
		}
		return false
	})
	c.Run(2 * time.Second)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	errs := c.VerifyAcks()
	if !reportsNode(errs, f.id, fmt.Sprintf("idx=%d", idx)) {
		t.Fatalf("a byte flipped in node %d's copy of entry %d went unreported; audit: %v", f.id, idx, errs)
	}
}

// TestAuditCatchesRecycledFrame hands the bytes of a raft frame that still
// back a follower's stored block to the leader's free list, as a follower
// that released a frame with entries would. The leader's next small frame
// is written over them. Hashes taken at apply time cannot see that; the
// re-hash of every stored block must.
func TestAuditCatchesRecycledFrame(t *testing.T) {
	c, err := New(auditConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.M.Eng.Shutdown)
	c.Start()
	stepUntil(t, c, "a leader", func() bool { return c.nodes[0].groups[0].raft.Leader() >= 0 })
	f := follower(c)
	lead := c.nodes[f.groups[0].raft.Leader()]
	var lba uint64
	var blk block
	stepUntil(t, c, "a block stored on the follower", func() bool {
		found := false
		for l, b := range f.groups[0].store {
			if !found || l < lba {
				lba, blk, found = l, b, true
			}
		}
		return found
	})
	if errs := c.VerifyAcks(); len(errs) != 0 {
		t.Fatalf("audit not clean before the doctored release: %v", errs)
	}
	stored := append([]byte(nil), blk.data...)
	f.ep.Release(&netsim.Msg{SrcID: lead.ep.ID(), Payload: blk.data})
	stepUntil(t, c, "the leader's next frame over the block", func() bool {
		return !bytes.Equal(blk.data, stored)
	})
	c.Stop()
	c.M.Eng.Run(c.M.Eng.Now() + 5*time.Millisecond)
	if !reportsNode(c.VerifyAcks(), f.id, fmt.Sprintf("lba=%d", lba)) {
		t.Fatalf("node %d's block at lba %d was overwritten in place and the audit missed it", f.id, lba)
	}
}

// TestOneHashPerReplicaPerWrite counts the hashes of 4 KiB blocks an
// untraced run takes: exactly one per replica per write. The leader's ack
// reuses the hash its apply took, and the whole-entry hash of the RaftApply
// event is computed only for a tracer.
func TestOneHashPerReplicaPerWrite(t *testing.T) {
	cfg := auditConfig(4096)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	onHash = func(b []byte) {
		if len(b) == cfg.PayloadBytes {
			blocks++
		}
	}
	t.Cleanup(func() { onHash = nil })
	c.Start()
	c.Run(2 * time.Second)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Timeouts != 0 || s.AckedWrites != uint64(cfg.OpsPerClient) {
		t.Fatalf("%d timeouts, %d acked writes: the count needs each write proposed once", s.Timeouts, s.AckedWrites)
	}
	if want := cfg.RF * int(s.AckedWrites); blocks != want {
		t.Fatalf("%d hashes of a 4 KiB block for %d writes at RF %d, want %d", blocks, s.AckedWrites, cfg.RF, want)
	}
	onHash = nil
	if errs := c.VerifyAcks(); len(errs) != 0 {
		t.Fatalf("audit: %v", errs)
	}
}

// TestPayloadBytesUnchanged pins the client's block generator: storing each
// splitmix64 step whole must produce the bytes the byte-at-a-time loop did,
// or every load fingerprint moves.
func TestPayloadBytesUnchanged(t *testing.T) {
	byteLoop := func(seed uint64, reqid uint32, n int) []byte {
		b := make([]byte, n)
		x := mix.SplitMix64(seed ^ uint64(reqid)<<13 ^ 0xA3)
		for i := range b {
			if i%8 == 0 {
				x = mix.SplitMix64(x)
			}
			b[i] = byte(x >> ((i % 8) * 8))
		}
		return b
	}
	for _, seed := range []uint64{0, 1, 7, 1 << 40} {
		for _, n := range []int{1, 7, 8, 9, 63, 64, 4095, 4096, 4100} {
			cl := &Client{c: &Cluster{cfg: Config{Seed: seed, PayloadBytes: n}}}
			for _, reqid := range []uint32{0, 1, 3<<24 | 17, 0xFFFFFFFF} {
				if got, want := cl.payload(reqid), byteLoop(seed, reqid, n); !bytes.Equal(got, want) {
					t.Fatalf("seed %d reqid %#x n %d: payload diverged from the byte loop", seed, reqid, n)
				}
			}
		}
	}
}
