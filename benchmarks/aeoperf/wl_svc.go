package main

import (
	"fmt"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/aeosvc"
	"aeolia/internal/machine"
	"aeolia/internal/netsim"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/uintr"
)

// Frozen sizes of the storage-service workload.
const (
	svcClients     = 8
	svcTenantCount = 2
	svcQD          = 4
	svcIOBytes     = 4096
	svcFileBytes   = 1 << 20
	svcOps         = 5_000 // measured ops per client
	svcClientCores = 2     // client tasks share these
	svcSlice       = 50 * time.Microsecond
)

// fabricLink is every link of the networked workloads: 5 µs, 10 Gb/s.
var fabricLink = netsim.Config{Latency: 5 * time.Microsecond, BytesPerSec: 10e9 / 8}

// linkCounters sums the fabric's link counters.
func linkCounters(c map[string]float64, fab *netsim.Fabric) {
	for _, l := range fab.Links() {
		c["netsim.frames"] += float64(l.Sent)
		c["netsim.dropped"] += float64(l.Dropped)
		c["netsim.overflows"] += float64(l.Overflows)
	}
}

// runSvcRW drives the system's own closed-loop client library
// (aeosvc.Client) through its config. The library owns the op stream, so the
// benchmark cannot put spans around its calls or check read payloads; it
// checks the books instead: every client completed exactly its ops with no
// error, the bytes moved add up, and the server's accounting is clean.
func runSvcRW(p params) (*rep, error) {
	t0 := time.Now()
	const cores = 3 + svcClientCores
	m := machine.New(cores, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: fsDevBlocks, Model: p.devModel()})
	defer m.Eng.Shutdown()
	r, _ := newRep(p, m.Eng) // the client library takes no spans
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{})
	if err != nil {
		return nil, err
	}
	fab := netsim.New(m.Eng, p.seed)
	tenants := make([]aeosvc.TenantConfig, svcTenantCount)
	for i := range tenants {
		tenants[i].ID = uint16(i)
	}
	srv := aeosvc.NewServer(fab, m.Kern, fi.Proc.Gate, fi.FS, aeosvc.Config{Tenants: tenants})
	srv.Start(m.Eng.Core(0), []*sim.Core{m.Eng.Core(1), m.Eng.Core(2)})

	ops := p.nops(svcOps, 50)
	warm := warmup(p, ops)
	clients := make([]*aeosvc.Client, svcClients)
	errs := make([]error, svcClients)
	for i := range clients {
		c := aeosvc.NewClient(fab, "svc", aeosvc.ClientConfig{
			ID: i, Tenant: uint16(i % svcTenantCount), QD: svcQD,
			Ops: ops, WarmupOps: warm, ReadFrac: 0.7,
			IOBytes: svcIOBytes, FileBytes: p.n(svcFileBytes, 4*svcIOBytes),
			Seed: int64(mix64(p.seed^uint64(i+1)<<20) >> 1),
		})
		fab.Connect(c.EndpointName(), "svc", fabricLink)
		fab.Connect("svc", c.EndpointName(), fabricLink)
		clients[i] = c
		i := i
		m.Eng.Spawn(fmt.Sprintf("client%d", i), m.Eng.Core(3+i%svcClientCores), func(env *sim.Env) {
			errs[i] = c.Run(env)
		})
	}
	meter := &meter{eng: m.Eng, counters: func() map[string]float64 {
		c := map[string]float64{"mpk.gate_calls": float64(fi.Proc.Gate.Calls)}
		devCounters(c, m.Dev)
		cacheCounters(c, fi.AeoFS.CacheStats())
		linkCounters(c, fab)
		upidCounters(c, []*uintr.UPID{srv.UPID()})
		st := srv.Stats()
		c["aeosvc.received"], c["aeosvc.shed"] = float64(st.Received), float64(st.Shed)
		return c
	}}

	// Set-up ends, and the timed phase starts, once every client is past
	// its open, prefill and warm-up ops.
	measured := func() (n int) {
		for _, c := range clients {
			n += len(c.Result.Samples)
		}
		return n
	}
	warmed := func() bool {
		for i, c := range clients {
			if len(c.Result.Samples) == 0 && errs[i] == nil && !c.Done() {
				return false
			}
		}
		return true
	}
	if err := meter.run(warmed, simLimit, svcSlice); err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)
	before := measured()
	meter.begin(m.Eng.Now())
	finished := func() bool {
		for i, c := range clients {
			if errs[i] == nil && !c.Done() {
				return false
			}
		}
		return true
	}
	if err := meter.run(finished, simLimit, svcSlice); err != nil {
		return nil, err
	}
	meter.end(m.Eng.Now())
	if err := meter.run(meter.folded, simLimit, svcSlice); err != nil {
		return nil, err
	}
	meter.into(r)
	srv.Stop()
	m.Eng.Run(m.Eng.Now() + time.Millisecond)

	// Books.
	h := fnvOffset
	for i, c := range clients {
		res := &c.Result
		r.lat = append(r.lat, res.Samples...)
		r.attempts += ops + int(res.Retries)
		r.failed += int(res.Shed + res.Errors)
		switch {
		case errs[i] != nil:
			r.fail("client %d: %v", i, errs[i])
		case int(res.Ops) != ops:
			r.fail("client %d completed %d of %d ops", i, res.Ops, ops)
		case res.Bytes != uint64(ops*svcIOBytes):
			r.fail("client %d moved %d bytes, want %d", i, res.Bytes, ops*svcIOBytes)
		}
		r.fp.Ops += int(res.Ops)
		r.fp.Bytes += res.Bytes
		h = h.add(uint64(i), res.Ops, res.Bytes)
	}
	if err := srv.Err(); err != nil {
		r.fail("server: %v", err)
	}
	if err := srv.CheckAccounting(); err != nil {
		r.fail("server accounting: %v", err)
	}
	// The load as the server saw it: requests in, file-system ops done,
	// replies out. Reads and writes are not told apart by the library's
	// results; the device's write bytes are the program's answer to the
	// load, not the load, and stay out of the fingerprint.
	st := srv.Stats()
	r.fp.Hash = uint64(h.add(st.Received, st.Admitted, st.FSOps, st.Replied))
	// Host cost is per op completed inside the timed phase.
	r.timedOps = measured() - before
	return r, nil
}
