package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"aeolia/internal/cluster"
	"aeolia/internal/netsim"
	"aeolia/internal/nvme"
	"aeolia/internal/report"
	"aeolia/internal/sim"
)

// Simulator-scale study. One deliberately large deployment — 64 OSD nodes,
// 1024 closed-loop clients, 1089 simulated cores — runs on the serial
// engine. The deterministic table gates that every op finished and no
// acknowledged write was lost, and pins the run with an FNV hash over the
// ack stream; the timing table reports the wall-clock cost and event rate of
// the deployment plus the existing qdsweep and svcscale scenarios, so
// engine-performance regressions show up in CI artifacts. Timing is a
// measurement, never an assertion.
const (
	simScaleNodes   = 64
	simScaleClients = 1024
	simScalePGs     = 16
	simScaleRF      = 3
	simScaleOps     = 2
	simScaleSeed    = 977
	simScaleHorizon = 4 * time.Second
)

// simScaleConfig is the scale deployment; every link is 5µs and 10 GB/s.
var simScaleConfig = cluster.Config{
	Nodes: simScaleNodes, PGs: simScalePGs, RF: simScaleRF,
	Clients: simScaleClients, OpsPerClient: simScaleOps,
	Seed: simScaleSeed,
	Link: netsim.Config{Latency: 5 * time.Microsecond, BytesPerSec: 10e9, QueueDepth: 256},
}

// simScaleResult is one measured run of the scale deployment.
type simScaleResult struct {
	Stats      cluster.Stats
	Eng        sim.EngineStats
	SimElapsed time.Duration
	Wall       time.Duration
	AckHash    uint64
	Lost       int
}

// ackHash folds every acknowledged write (in observation order) into one
// FNV-64a digest — a compact byte-identical witness for the whole run.
func ackHash(acks []cluster.Ack) uint64 {
	h := fnv.New64a()
	var buf [40]byte
	for _, a := range acks {
		binary.LittleEndian.PutUint64(buf[0:], uint64(a.PG))
		binary.LittleEndian.PutUint64(buf[8:], a.Index)
		binary.LittleEndian.PutUint64(buf[16:], a.LBA)
		binary.LittleEndian.PutUint64(buf[24:], uint64(a.Hash))
		binary.LittleEndian.PutUint64(buf[32:], uint64(a.At))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// simScaleRun executes the scale deployment, measuring wall time around the
// simulation proper (assembly excluded).
func simScaleRun() (*simScaleResult, error) {
	c, err := cluster.New(simScaleConfig)
	if err != nil {
		return nil, fmt.Errorf("fig_simscale: %w", err)
	}
	start := time.Now()
	c.Start()
	elapsed := c.Run(simScaleHorizon)
	wall := time.Since(start)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("fig_simscale: %w", err)
	}
	return &simScaleResult{
		Stats:      c.Stats(),
		Eng:        c.M.Eng.Stats(),
		SimElapsed: elapsed,
		Wall:       wall,
		AckHash:    ackHash(c.Acks()),
		Lost:       len(c.VerifyAcks()),
	}, nil
}

// simScaleGate is the figure's acceptance predicate: every client op
// finished within the horizon, and the lost-write audit found nothing.
func simScaleGate(r *simScaleResult) error {
	const want = simScaleClients * simScaleOps
	if done := r.Stats.AckedWrites + r.Stats.Reads; done != want {
		return fmt.Errorf("fig_simscale: %d of %d ops finished", done, want)
	}
	if r.Lost != 0 {
		return fmt.Errorf("fig_simscale: %d acknowledged write(s) lost", r.Lost)
	}
	return nil
}

// FigSimScale runs the 64-node/1024-client deployment, gates it with
// simScaleGate, and reports wall-clock timing plus engine event rates on
// the existing qdsweep and svcscale scenarios.
//
// The fig_simscale table is deterministic (safe for golden comparison); the
// fig_simscale_timing table carries wall-clock measurements and is NOT —
// determinism harnesses must skip tables whose ID ends in "_timing".
func FigSimScale() ([]*report.Table, error) {
	t := &report.Table{
		ID:    "fig_simscale",
		Title: "Simulator scale: 64-node/1024-client cluster",
		Columns: []string{"cores", "acked_writes", "reads", "retries",
			"elections", "raft_msgs", "lost", "sim_ms", "events", "ack_hash"},
	}
	r, err := simScaleRun()
	if err != nil {
		return nil, err
	}
	if err := simScaleGate(r); err != nil {
		return nil, err
	}
	s := r.Stats
	t.AddRowf(fmt.Sprintf("%d", simScaleNodes+1+simScaleClients),
		fmt.Sprintf("%d", s.AckedWrites),
		fmt.Sprintf("%d", s.Reads),
		fmt.Sprintf("%d", s.Retries),
		fmt.Sprintf("%d", s.Elections),
		fmt.Sprintf("%d", s.RaftMsgs),
		fmt.Sprintf("%d", r.Lost),
		fmt.Sprintf("%.2f", float64(r.SimElapsed)/float64(time.Millisecond)),
		fmt.Sprintf("%d", r.Eng.SerialEvents),
		fmt.Sprintf("%#x", r.AckHash))
	t.Note("gate: all 2048 client ops finished and the lost-write audit found nothing")

	tt := &report.Table{
		ID:      "fig_simscale_timing",
		Title:   "Simulator scale: wall-clock timing (nondeterministic — excluded from golden gates)",
		Columns: []string{"scenario", "gomaxprocs", "wall_ms", "events", "kevents_per_sec"},
	}
	gmp := fmt.Sprintf("%d", runtime.GOMAXPROCS(0))
	ms := func(d time.Duration) string { return fmt.Sprintf("%.0f", float64(d)/float64(time.Millisecond)) }
	rate := "-"
	if r.Wall > 0 {
		rate = fmt.Sprintf("%.0f", float64(r.Eng.SerialEvents)/r.Wall.Seconds()/1e3)
	}
	tt.AddRowf("cluster_64x1024", gmp, ms(r.Wall), fmt.Sprintf("%d", r.Eng.SerialEvents), rate)

	// Engine rate on the existing scenarios: a calendar/pooling regression
	// in the core engine shows up here too.
	qdStart := time.Now()
	if _, _, err := qdSweepRun(nvme.LatencyModel{}, 16, pathBatched, nil); err != nil {
		return nil, fmt.Errorf("fig_simscale qdsweep probe: %w", err)
	}
	tt.AddRowf("qdsweep_qd16", gmp, ms(time.Since(qdStart)), "-", "-")
	svcStart := time.Now()
	if _, err := svcScaleRun(8, true, nil); err != nil {
		return nil, fmt.Errorf("fig_simscale svcscale probe: %w", err)
	}
	tt.AddRowf("svcscale_n8", gmp, ms(time.Since(svcStart)), "-", "-")
	tt.Note("timing is a measurement, never an assertion")
	return []*report.Table{t, tt}, nil
}
