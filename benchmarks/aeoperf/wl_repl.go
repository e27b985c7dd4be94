package main

import (
	"time"

	"aeolia/internal/cluster"
	"aeolia/internal/netsim"
)

// Frozen sizes of the replication workload.
const (
	replNodes   = 5
	replPGs     = 8
	replRF      = 3
	replClients = 8
	replPayload = 4096
	replOps     = 950 // ops per client, the warm-up fifth included
	replSlice   = 50 * time.Microsecond
	// replWarmSpread bounds the seed-derived extra warm-up ops per client.
	replWarmSpread = 64
)

// runReplRF3 drives the system's own closed-loop cluster client through
// cluster.Config. The client owns the op stream; the benchmark checks the
// cluster's books: no internal failure, no lost acknowledged write, every
// op acknowledged, no timeout, and no election after boot.
func runReplRF3(p params) (*rep, error) {
	t0 := time.Now()
	// cluster.Config has one Seed, and it also decides who wins each
	// group's election. Leader placement alone moves throughput by +/-10 %
	// (157-191 KIOPS over seeds 1-14), which would bury any change to the
	// code. A run therefore always covers the same five placements —
	// repetition seeds S..S+4 hit every residue mod 5 once — and the
	// benchmark seed moves only where in each client's op stream the timed
	// phase starts.
	extra := int(mix64(p.seed) % replWarmSpread)
	ops := p.nops(replOps, 60) + extra
	warm := p.nops(replOps, 60)/5 + extra
	c, err := cluster.New(cluster.Config{
		Nodes: replNodes, PGs: replPGs, RF: replRF,
		Clients: replClients, OpsPerClient: ops,
		WritePct: 70, PayloadBytes: replPayload,
		Seed: 1 + p.seed%repetitions, Link: netsim.Config{Latency: fabricLink.Latency},
	})
	if err != nil {
		return nil, err
	}
	eng := c.M.Eng
	defer eng.Shutdown()
	r, _ := newRep(p, eng) // the client library takes no spans
	c.Start()
	meter := &meter{eng: eng, counters: func() map[string]float64 {
		st := c.Stats()
		m := map[string]float64{
			"raft.msgs": float64(st.RaftMsgs), "raft.elections": float64(st.Elections),
			"cluster.acked_writes": float64(st.AckedWrites), "cluster.reads": float64(st.Reads),
			"cluster.retries": float64(st.Retries), "cluster.timeouts": float64(st.Timeouts),
			"netsim.overflows": float64(st.TxOverflows),
		}
		linkCounters(m, c.Fab)
		return m
	}}

	completed := func(i int) int { cl := c.Clients()[i]; return len(cl.WriteLat) + len(cl.ReadLat) }
	all := func(n int) func() bool {
		return func() bool {
			if c.Err() != nil {
				return true
			}
			for i := range c.Clients() {
				if completed(i) < n {
					return false
				}
			}
			return true
		}
	}
	// Set-up ends once every client has its map, every group its leader and
	// each client a fifth of its ops behind it.
	if err := meter.run(all(warm), simLimit, replSlice); err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)
	type mark struct{ w, r int }
	marks := make([]mark, replClients)
	before := 0
	for i, cl := range c.Clients() {
		marks[i] = mark{len(cl.WriteLat), len(cl.ReadLat)}
		before += completed(i)
	}
	meter.begin(eng.Now())
	if err := meter.run(all(ops), simLimit, replSlice); err != nil {
		return nil, err
	}
	meter.end(eng.Now())
	if err := meter.run(meter.folded, simLimit, replSlice); err != nil {
		return nil, err
	}
	meter.into(r)
	c.Run(eng.Now() + simLimit) // settle, stop

	// Books.
	if err := c.Err(); err != nil {
		r.fail("cluster: %v", err)
	}
	for _, e := range c.VerifyAcks() {
		r.fail("lost write: %v", e)
	}
	h := fnvOffset
	for i, cl := range c.Clients() {
		r.lat = append(r.lat, cl.WriteLat[marks[i].w:]...)
		r.lat = append(r.lat, cl.ReadLat[marks[i].r:]...)
		if n := completed(i); n != ops {
			r.fail("client %d completed %d of %d ops", i, n, ops)
		}
		r.failed += int(cl.Timeouts)
		r.attempts += ops + int(cl.Retries)
		// The load as acknowledged: which block of which group took which
		// payload, in the client's order. Raft indices and times are the
		// program's answer, not the load.
		for _, a := range cl.Acks() {
			h = h.add(uint64(a.PG), a.LBA, uint64(a.Hash))
		}
		r.fp.Writes += len(cl.WriteLat)
		r.fp.Reads += len(cl.ReadLat)
		r.fp.Bytes += uint64(len(cl.WriteLat)+len(cl.ReadLat)) * replPayload
	}
	r.fp.Ops = r.fp.Reads + r.fp.Writes
	r.fp.Hash = uint64(h)
	r.timedOps = replClients*ops - before
	return r, nil
}
