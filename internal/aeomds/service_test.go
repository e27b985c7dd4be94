package aeomds

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/aeokern"
	"aeolia/internal/aeosvc"
	"aeolia/internal/machine"
	"aeolia/internal/netsim"
	"aeolia/internal/nvme"
	"aeolia/internal/sched"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

var testLink = netsim.Config{
	Latency:     5 * time.Microsecond,
	BytesPerSec: 10e9,
	Jitter:      2 * time.Microsecond,
	QueueDepth:  256,
}

// testCluster is a full MGM/FST testbed: one machine hosting nFST aeosvc
// data servers (each on its own device partition) and an MDS service, all
// joined by one fabric.
type testCluster struct {
	m   *machine.Machine
	fab *netsim.Fabric
	svc *Service
	fst []*aeosvc.Server
}

func fstName(i int) string { return fmt.Sprintf("fst%d", i) }

func newTestCluster(t *testing.T, shards, nFST int, tr *trace.Tracer) *testCluster {
	t.Helper()
	m := machine.New(2+2*nFST+1, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: uint64(nFST) << 13})
	m.Eng.Tracer = tr
	fab := netsim.New(m.Eng, 7)
	tc := &testCluster{m: m, fab: fab}
	// Build every file system before starting any server: BuildFS drives
	// the engine to drain, which a live server loop would prevent.
	var fis []*machine.FSInstance
	for i := 0; i < nFST; i++ {
		fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{
			Partition: aeokern.Partition{Start: uint64(i) << 13, Blocks: 1 << 13, Writable: true},
			Journals:  8,
		})
		if err != nil {
			t.Fatalf("fst %d: %v", i, err)
		}
		fis = append(fis, fi)
	}
	for i, fi := range fis {
		srv := aeosvc.NewServer(fab, m.Kern, fi.Proc.Gate, fi.FS, aeosvc.Config{
			Endpoint: fstName(i),
		})
		srv.Start(m.Eng.Core(1+2*i), []*sim.Core{m.Eng.Core(2 + 2*i)})
		tc.fst = append(tc.fst, srv)
	}
	tc.svc = NewService(fab, Config{Shards: shards, DataNodes: nFST})
	tc.svc.Start([]*sim.Core{m.Eng.Core(1 + 2*nFST)})
	// Shard↔shard links for rename/mkdir coordination.
	for i := 0; i < shards; i++ {
		for j := 0; j < shards; j++ {
			if i != j {
				fab.Connect(ShardEndpoint(i), ShardEndpoint(j), testLink)
			}
		}
	}
	return tc
}

// connect wires client id to every shard and data server, both directions.
func (tc *testCluster) connect(id int) {
	ep := ClientEndpoint(id)
	for i := range tc.svc.rt {
		tc.fab.Connect(ep, ShardEndpoint(i), testLink)
		tc.fab.Connect(ShardEndpoint(i), ep, testLink)
	}
	for i := range tc.fst {
		tc.fab.Connect(ep, fstName(i), testLink)
		tc.fab.Connect(fstName(i), ep, testLink)
	}
}

func (tc *testCluster) stop() {
	tc.svc.Stop()
	for _, s := range tc.fst {
		s.Stop()
	}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// TestServiceEndToEnd drives the full split through the message layer: open
// with layout, striped writes and reads direct to the data servers, size
// flush on release, cross-shard rename, and lease revocation on truncate —
// then audits the lease books and the trace invariants.
func TestServiceEndToEnd(t *testing.T) {
	tr := trace.New(8, 1<<17)
	tc := newTestCluster(t, 2, 2, tr)
	defer tc.m.Eng.Shutdown()
	tc.connect(0)
	tc.connect(1)
	c1 := NewClient(tc.fab, ClientConfig{ID: 0, Shards: 2, DataEndpoints: []string{"fst0", "fst1"}})
	c2 := NewClient(tc.fab, ClientConfig{ID: 1, Shards: 2, DataEndpoints: []string{"fst0", "fst1"}})

	var failure error
	tc.m.Eng.Spawn("driver", tc.m.Eng.Core(0), func(env *sim.Env) {
		defer tc.stop()
		fail := func(step string, err error) bool {
			if err != nil && failure == nil {
				failure = fmt.Errorf("%s: %w", step, err)
			}
			return err != nil
		}
		// Directories land on different shards with high probability; the
		// exact split does not matter for correctness.
		if fail("mkdir /a", c1.Mkdir(env, "/a")) {
			return
		}
		if fail("mkdir /b", c1.Mkdir(env, "/b")) {
			return
		}
		// Create, stripe 40000 bytes across both FSTs, read back.
		if fail("open", c1.Open(env, "/a/data", true, true)) {
			return
		}
		want := pattern(40000, 3)
		if _, err := c1.WriteAt(env, "/a/data", want, 0); fail("write", err) {
			return
		}
		got := make([]byte, len(want))
		if n, err := c1.ReadAt(env, "/a/data", got, 0); fail("read", err) {
			return
		} else if n != len(want) || !bytes.Equal(got, want) {
			fail("read", fmt.Errorf("striped data mismatch (n=%d)", n))
			return
		}
		// Unaligned interior read crossing a stripe boundary.
		mid := make([]byte, 20000)
		if _, err := c1.ReadAt(env, "/a/data", mid, 12345); fail("mid read", err) {
			return
		}
		if !bytes.Equal(mid, want[12345:32345]) {
			fail("mid read", errors.New("unaligned read mismatch"))
			return
		}
		// Release flushes the size; a fresh open sees it.
		if fail("close", c1.Close(env, "/a/data")) {
			return
		}
		st, err := c1.Stat(env, "/a/data")
		if fail("stat", err) {
			return
		}
		if st.Size != 40000 {
			fail("stat", fmt.Errorf("size after release = %d, want 40000", st.Size))
			return
		}
		// Rename across directories (likely across shards); identity and
		// data follow the file because objects are named by ino.
		if fail("rename", c1.Rename(env, "/a/data", "/b/moved")) {
			return
		}
		if _, err := c1.Stat(env, "/a/data"); !errors.Is(err, ErrNotFound) {
			fail("rename", fmt.Errorf("source still visible: %v", err))
			return
		}
		if fail("reopen", c1.Open(env, "/b/moved", false, false)) {
			return
		}
		if n, err := c1.ReadAt(env, "/b/moved", got, 0); fail("reread", err) {
			return
		} else if n != len(want) || !bytes.Equal(got, want) {
			fail("reread", fmt.Errorf("data lost across rename (n=%d)", n))
			return
		}
		// Second client takes a lease; a truncate revokes every layout.
		if fail("c2 open", c2.Open(env, "/b/moved", false, false)) {
			return
		}
		if fail("truncate", c1.Truncate(env, "/b/moved", 100)) {
			return
		}
		// c1's own layout died too.
		env.Sleep(200 * time.Microsecond)
		if _, err := c1.ReadAt(env, "/b/moved", got[:10], 0); err == nil {
			// The revoke may still be queued behind the truncate reply;
			// the next call must observe it.
			_, err = c1.ReadAt(env, "/b/moved", got[:10], 0)
			if !errors.Is(err, ErrStaleLayout) {
				fail("revoke c1", fmt.Errorf("read under revoked lease: %v", err))
				return
			}
		} else if !errors.Is(err, ErrStaleLayout) {
			fail("revoke c1", err)
			return
		}
		if _, err := c2.ReadAt(env, "/b/moved", got[:10], 0); err == nil {
			_, err = c2.ReadAt(env, "/b/moved", got[:10], 0)
			if !errors.Is(err, ErrStaleLayout) {
				fail("revoke c2", fmt.Errorf("read under revoked lease: %v", err))
				return
			}
		} else if !errors.Is(err, ErrStaleLayout) {
			fail("revoke c2", err)
			return
		}
		if fail("c1 close revoked", c1.Close(env, "/b/moved")) {
			return
		}
		if fail("c2 close revoked", c2.Close(env, "/b/moved")) {
			return
		}
		// Readdir and unlink round out the op surface.
		ents, err := c1.Readdir(env, "/b")
		if fail("readdir", err) {
			return
		}
		if len(ents) != 1 || ents[0].Name != "moved" {
			fail("readdir", fmt.Errorf("entries = %+v", ents))
			return
		}
		if fail("unlink", c1.Unlink(env, "/b/moved")) {
			return
		}
		if _, err := c1.Stat(env, "/b/moved"); !errors.Is(err, ErrNotFound) {
			fail("unlink", fmt.Errorf("still visible: %v", err))
			return
		}
	})
	tc.m.Run(10 * time.Second)
	if failure != nil {
		t.Fatal(failure)
	}
	if err := tc.svc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := tc.svc.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	for i, s := range tc.fst {
		if err := s.CheckAccounting(); err != nil {
			t.Fatalf("fst %d: %v", i, err)
		}
	}
	if tc.svc.Granted == 0 || tc.svc.Revoked == 0 || tc.svc.Released == 0 {
		t.Fatalf("lease books unexercised: %+v granted=%d released=%d revoked=%d",
			"", tc.svc.Granted, tc.svc.Released, tc.svc.Revoked)
	}
	a := trace.Analyze(tr.Events())
	if len(a.Violations) != 0 {
		t.Fatalf("trace violations: %v", a.Violations[:min(len(a.Violations), 5)])
	}
	// The MDS is off the data path: data I/O events outnumber nothing, but
	// every one must cite a lease and a data-node QID, never an MDS shard.
	sawDataIO := false
	for _, ev := range tr.Events() {
		if ev.Type == trace.MDSDataIO {
			sawDataIO = true
			if ev.CID == trace.NoCID {
				t.Fatal("data I/O without a lease citation")
			}
		}
	}
	if !sawDataIO {
		t.Fatal("no MDSDataIO events traced")
	}
}

// TestServiceCrossShardMkdirRename pins the peer-coordination paths with a
// shard count high enough that cross-shard traffic is guaranteed: every
// (parent, child) pair whose hashes land on different shards exercises the
// attach/ingest messages.
func TestServiceCrossShardMkdirRename(t *testing.T) {
	tc := newTestCluster(t, 4, 2, nil)
	defer tc.m.Eng.Shutdown()
	tc.connect(0)
	c := NewClient(tc.fab, ClientConfig{ID: 0, Shards: 4, DataEndpoints: []string{"fst0", "fst1"}})

	var failure error
	tc.m.Eng.Spawn("driver", tc.m.Eng.Core(0), func(env *sim.Env) {
		defer tc.stop()
		fail := func(step string, err error) bool {
			if err != nil && failure == nil {
				failure = fmt.Errorf("%s: %w", step, err)
			}
			return err != nil
		}
		dirs := []string{"/d0", "/d1", "/d2", "/d3", "/d4", "/d5"}
		for _, d := range dirs {
			if fail("mkdir "+d, c.Mkdir(env, d)) {
				return
			}
		}
		// A file in each directory, renamed to the next directory over.
		for i, d := range dirs {
			p := d + "/f"
			if fail("open "+p, c.Open(env, p, true, true)) {
				return
			}
			data := pattern(5000, byte(i))
			if _, err := c.WriteAt(env, p, data, 0); fail("write "+p, err) {
				return
			}
			if fail("close "+p, c.Close(env, p)) {
				return
			}
		}
		for i, d := range dirs {
			src := d + "/f"
			dst := dirs[(i+1)%len(dirs)] + fmt.Sprintf("/g%d", i)
			if fail("rename "+src, c.Rename(env, src, dst)) {
				return
			}
		}
		for i, d := range dirs {
			dst := dirs[(i+1)%len(dirs)] + fmt.Sprintf("/g%d", i)
			if fail("open "+dst, c.Open(env, dst, false, false)) {
				return
			}
			data := make([]byte, 5000)
			if _, err := c.ReadAt(env, dst, data, 0); fail("read "+dst, err) {
				return
			}
			if !bytes.Equal(data, pattern(5000, byte(i))) {
				fail("read "+dst, errors.New("data lost across rename"))
				return
			}
			if fail("close "+dst, c.Close(env, dst)) {
				return
			}
			if _, err := c.Stat(env, d+"/f"); !errors.Is(err, ErrNotFound) {
				fail("stat", fmt.Errorf("source %s/f still visible: %v", d, err))
				return
			}
		}
	})
	tc.m.Run(10 * time.Second)
	if failure != nil {
		t.Fatal(failure)
	}
	if err := tc.svc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := tc.svc.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestHostileFramesDropped: malformed input bounces at the protocol
// boundary. An empty frame reaching a client parked on a call, and three
// frames a shard cannot act on (an undecodable request, an unknown magic, a
// revoke-ack for a lease it never granted), are dropped and counted; the
// service stays healthy and the next valid operation succeeds.
func TestHostileFramesDropped(t *testing.T) {
	tc := newTestCluster(t, 1, 1, nil)
	defer tc.m.Eng.Shutdown()
	tc.connect(0)
	tc.fab.Connect("evil", ClientEndpoint(0), testLink)
	tc.fab.Connect("evil", ShardEndpoint(0), testLink)
	c := NewClient(tc.fab, ClientConfig{ID: 0, Shards: 1, DataEndpoints: []string{"fst0"}})

	var failure error
	tc.m.Eng.Spawn("driver", tc.m.Eng.Core(0), func(env *sim.Env) {
		defer tc.stop()
		evil := tc.fab.Endpoint("evil")
		send := func(dst string, b []byte) {
			if err := evil.Send(env, dst, b); err != nil && failure == nil {
				failure = err
			}
		}
		// The empty frame lands while the client awaits its mkdir reply.
		send(ClientEndpoint(0), []byte{})
		if err := c.Mkdir(env, "/d"); err != nil {
			failure = fmt.Errorf("mkdir after empty frame: %w", err)
			return
		}
		send(ShardEndpoint(0), []byte{magicReq, byte(OpLookup)})
		send(ShardEndpoint(0), []byte{0x77, 1, 2, 3})
		send(ShardEndpoint(0), (&revokeAck{Lease: 12345}).encode(nil))
		env.Sleep(100 * time.Microsecond)
		if _, err := c.Stat(env, "/d"); err != nil {
			failure = fmt.Errorf("stat after hostile frames: %w", err)
		}
	})
	tc.m.Run(time.Second)
	if failure != nil {
		t.Fatal(failure)
	}
	if err := tc.svc.Err(); err != nil {
		t.Fatalf("service failed on hostile input: %v", err)
	}
	if c.BadFrames != 1 {
		t.Fatalf("client BadFrames = %d, want 1", c.BadFrames)
	}
	if tc.svc.BadFrames != 3 {
		t.Fatalf("shard BadFrames = %d, want 3", tc.svc.BadFrames)
	}
	if err := tc.svc.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestRevokeOrderFixed: an unlink of a file two clients hold open revokes
// both leases, and identical runs trace the same revoke timeline, whatever
// order the shard's lease map iterates in.
func TestRevokeOrderFixed(t *testing.T) {
	first := revokeTimeline(t)
	if n := strings.Count(first, trace.MDSLeaseRevoke.String()+" "); n != 2 {
		t.Fatalf("timeline has %d revokes, want 2:\n%s", n, first)
	}
	for run := 1; run < 50; run++ {
		if got := revokeTimeline(t); got != first {
			t.Fatalf("run %d: revoke timeline differs.\n--- first ---\n%s--- run %d ---\n%s", run, first, run, got)
		}
	}
}

// revokeTimeline runs one shard and three clients: client 0 creates /d/f,
// clients 1 and 2 open it, client 0 unlinks it, and each holder's next
// round trip takes its revoke. It returns the revoke and revoked events.
func revokeTimeline(t *testing.T) string {
	t.Helper()
	eng := sim.NewEngine(2, sched.NewEEVDF())
	defer eng.Shutdown()
	tr := trace.New(2, 1<<12)
	eng.Tracer = tr
	fab := netsim.New(eng, 1)
	svc := NewService(fab, Config{Shards: 1, DataNodes: 1})
	svc.Start([]*sim.Core{eng.Core(0)})
	var cs []*Client
	for id := 0; id < 3; id++ {
		cs = append(cs, NewClient(fab, ClientConfig{ID: id, Shards: 1}))
		fab.Connect(ClientEndpoint(id), ShardEndpoint(0), testLink)
		fab.Connect(ShardEndpoint(0), ClientEndpoint(id), testLink)
	}
	var failure error
	eng.Spawn("driver", eng.Core(1), func(env *sim.Env) {
		defer svc.Stop()
		stat := func(c *Client) error {
			_, err := c.Stat(env, "/d")
			return err
		}
		for _, err := range []func() error{
			func() error { return cs[0].Mkdir(env, "/d") },
			func() error { return cs[0].Open(env, "/d/f", true, true) },
			func() error { return cs[0].Close(env, "/d/f") },
			func() error { return cs[1].Open(env, "/d/f", false, false) },
			func() error { return cs[2].Open(env, "/d/f", false, false) },
			func() error { return cs[0].Unlink(env, "/d/f") },
			func() error { return stat(cs[1]) },
			func() error { return stat(cs[2]) },
			func() error { return cs[1].Close(env, "/d/f") },
			func() error { return cs[2].Close(env, "/d/f") },
		} {
			if failure = err(); failure != nil {
				return
			}
		}
	})
	eng.Run(time.Second)
	if failure != nil {
		t.Fatal(failure)
	}
	if err := svc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := svc.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, ev := range tr.Events() {
		if ev.Type == trace.MDSLeaseRevoke || ev.Type == trace.MDSLeaseRevoked {
			fmt.Fprintf(&sb, "%v %v lease=%#x\n", ev.At, ev.Type, ev.CID)
		}
	}
	return sb.String()
}
