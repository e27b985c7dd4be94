package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"aeolia/internal/cluster"
	"aeolia/internal/netsim"
	"aeolia/internal/report"
	"aeolia/internal/sim"
)

// Simulator-scale study. One deliberately large deployment — 64 OSD nodes,
// 1024 closed-loop clients, 1089 simulated cores — runs twice on the same
// seed: serially, and with conservative parallel lanes (one lane per core,
// lookahead bounded by the fabric's link latency). The deterministic table
// proves the two modes byte-identical (same acks, same stats, same FNV hash
// over the ack stream); the timing table reports the wall-clock cost of
// each mode plus the serial engine's event rate on the existing qdsweep and
// svcscale scenarios, so engine-performance regressions show up in CI
// artifacts.
//
// Speedup is reported, never asserted: it depends on GOMAXPROCS and the
// runner's core count (a single-core runner will show <=1x — the lanes are
// then pure bookkeeping overhead). Determinism is the gate; speed is the
// measurement.
const (
	simScaleNodes   = 64
	simScaleClients = 1024
	simScalePGs     = 16
	simScaleRF      = 3
	simScaleOps     = 2
	simScaleSeed    = 977
	simScaleHorizon = 4 * time.Second
)

// simScaleLink shapes every link of the scale deployment. The 5µs latency
// doubles as the parallel-lane lookahead window.
var simScaleLink = netsim.Config{
	Latency:     5 * time.Microsecond,
	BytesPerSec: 10e9,
	QueueDepth:  256,
}

func simScaleConfig(parallel bool) cluster.Config {
	return cluster.Config{
		Nodes: simScaleNodes, PGs: simScalePGs, RF: simScaleRF,
		Clients: simScaleClients, OpsPerClient: simScaleOps,
		Seed: simScaleSeed, Link: simScaleLink,
		ParallelLanes: parallel,
	}
}

// simScaleResult is one measured mode of the scale deployment.
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

// simScaleRun executes the scale deployment in one mode, measuring wall
// time around the simulation proper (assembly excluded: link wiring is
// mode-independent setup).
func simScaleRun(parallel bool) (*simScaleResult, error) {
	mode := "serial"
	if parallel {
		mode = "parallel"
	}
	c, err := cluster.New(simScaleConfig(parallel))
	if err != nil {
		return nil, fmt.Errorf("fig_simscale %s: %w", mode, err)
	}
	start := time.Now()
	c.Start()
	elapsed := c.Run(simScaleHorizon)
	wall := time.Since(start)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("fig_simscale %s: %w", mode, err)
	}
	if parallel && c.M.Eng.Stats().Windows == 0 {
		return nil, fmt.Errorf("fig_simscale: parallel mode executed zero windows")
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

// simScaleGate is the determinism gate: the parallel-lane run must reproduce
// the serial run's acks and stats exactly.
func simScaleGate(serial, par *simScaleResult) error {
	if par.AckHash != serial.AckHash || par.Stats != serial.Stats {
		return fmt.Errorf("fig_simscale: parallel run diverged from serial (ack hash %#x vs %#x)",
			par.AckHash, serial.AckHash)
	}
	return nil
}

// FigSimScale runs the 64-node/1024-client deployment serially and with
// parallel lanes, gates on byte-identical results, and reports wall-clock
// timing for both modes plus engine event rates on the existing qdsweep and
// svcscale scenarios.
//
// The fig_simscale table is deterministic (safe for golden comparison); the
// fig_simscale_timing table carries wall-clock measurements and is NOT —
// determinism harnesses must skip tables whose ID ends in "_timing".
func FigSimScale() ([]*report.Table, error) {
	t := &report.Table{
		ID:    "fig_simscale",
		Title: "Simulator scale: 64-node/1024-client cluster, serial vs parallel lanes",
		Columns: []string{"mode", "cores", "acked_writes", "reads", "retries",
			"elections", "raft_msgs", "lost", "sim_ms", "windows",
			"window_events", "serial_events", "ack_hash", "match"},
	}
	cores := simScaleNodes + 1 + simScaleClients
	serial, err := simScaleRun(false)
	if err != nil {
		return nil, err
	}
	par, err := simScaleRun(true)
	if err != nil {
		return nil, err
	}
	if err := simScaleGate(serial, par); err != nil {
		return nil, err
	}
	for _, r := range []*simScaleResult{serial, par} {
		mode := "serial"
		match := "-"
		if r == par {
			mode = "parallel"
			match = "yes"
		}
		s := r.Stats
		t.AddRowf(mode,
			fmt.Sprintf("%d", cores),
			fmt.Sprintf("%d", s.AckedWrites),
			fmt.Sprintf("%d", s.Reads),
			fmt.Sprintf("%d", s.Retries),
			fmt.Sprintf("%d", s.Elections),
			fmt.Sprintf("%d", s.RaftMsgs),
			fmt.Sprintf("%d", r.Lost),
			fmt.Sprintf("%.2f", float64(r.SimElapsed)/float64(time.Millisecond)),
			fmt.Sprintf("%d", r.Eng.Windows),
			fmt.Sprintf("%d", r.Eng.WindowEvents),
			fmt.Sprintf("%d", r.Eng.SerialEvents),
			fmt.Sprintf("%#x", r.AckHash),
			match)
	}
	t.Note("match = parallel acks, stats, and FNV ack hash byte-identical to serial (hard gate: divergence fails the run)")
	t.Note("windows/window_events count conservative parallel windows and the events executed inside them")
	t.Note("parallel lanes: one lane per core, lookahead = 5us link latency, serial warmup of one raft tick")

	tt := &report.Table{
		ID:    "fig_simscale_timing",
		Title: "Simulator scale: wall-clock timing (nondeterministic — excluded from golden gates)",
		Columns: []string{"scenario", "mode", "gomaxprocs", "wall_ms", "events",
			"kevents_per_sec", "speedup"},
	}
	gmp := runtime.GOMAXPROCS(0)
	evTotal := func(r *simScaleResult) uint64 { return r.Eng.WindowEvents + r.Eng.SerialEvents }
	rate := func(events uint64, wall time.Duration) string {
		if wall <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", float64(events)/wall.Seconds()/1e3)
	}
	tt.AddRowf("cluster_64x1024", "serial", fmt.Sprintf("%d", gmp),
		fmt.Sprintf("%.0f", float64(serial.Wall)/float64(time.Millisecond)),
		fmt.Sprintf("%d", evTotal(serial)), rate(evTotal(serial), serial.Wall), "1.00")
	tt.AddRowf("cluster_64x1024", "parallel", fmt.Sprintf("%d", gmp),
		fmt.Sprintf("%.0f", float64(par.Wall)/float64(time.Millisecond)),
		fmt.Sprintf("%d", evTotal(par)), rate(evTotal(par), par.Wall),
		fmt.Sprintf("%.2f", serial.Wall.Seconds()/par.Wall.Seconds()))

	// Serial-engine rate on the existing scenarios: a calendar/pooling
	// regression in the core engine shows up here even with lanes off.
	qdStart := time.Now()
	if _, err := qdSweepRun(16, true, nil); err != nil {
		return nil, fmt.Errorf("fig_simscale qdsweep probe: %w", err)
	}
	tt.AddRowf("qdsweep_qd16", "serial", fmt.Sprintf("%d", gmp),
		fmt.Sprintf("%.0f", float64(time.Since(qdStart))/float64(time.Millisecond)),
		"-", "-", "-")
	svcStart := time.Now()
	if _, err := svcScaleRun(8, true, nil); err != nil {
		return nil, fmt.Errorf("fig_simscale svcscale probe: %w", err)
	}
	tt.AddRowf("svcscale_n8", "serial", fmt.Sprintf("%d", gmp),
		fmt.Sprintf("%.0f", float64(time.Since(svcStart))/float64(time.Millisecond)),
		"-", "-", "-")
	tt.Note("speedup = serial wall / parallel wall for the same seeded deployment; <=1x expected on single-core runners")
	tt.Note("determinism is the gate (see fig_simscale); timing is a measurement, never an assertion")
	return []*report.Table{t, tt}, nil
}
