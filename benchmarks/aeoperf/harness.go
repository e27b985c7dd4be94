package main

import (
	"fmt"
	"runtime"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
	"aeolia/internal/uintr"
)

// params is what one repetition is asked to do. Everything but the seed and
// the two scales exists for the traced run and the sensitivity self-check;
// the end-to-end runs leave it zero.
type params struct {
	seed uint64
	size float64 // multiplies prefill sizes and op counts (1 = the frozen sizes; tests use 0.01)
	ops  float64 // multiplies op counts only (-seconds over the frozen run length; self-check (c) doubles it)

	tracer bool // set Engine.Tracer
	spans  bool // record benchmark-side spans (implies tracer)

	readBaseExtra time.Duration // self-check (a): slower device reads
	corrupt       bool          // self-check (d): one bad prefill unit
}

// n scales a frozen size, never below min.
func (p params) n(frozen, min int) int {
	return max(int(float64(frozen)*p.size), min)
}

// nops scales a frozen op count, never below min.
func (p params) nops(frozen, min int) int {
	return max(int(float64(frozen)*p.size*p.ops), min)
}

// devModel is the default device model, slowed for self-check (a).
func (p params) devModel() nvme.LatencyModel {
	if p.readBaseExtra == 0 {
		return nvme.LatencyModel{} // zero value: the package default
	}
	m := nvme.P5800X()
	m.ReadBase += p.readBaseExtra
	return m
}

// fingerprint describes the load a repetition offered, independent of how
// fast the program served it.
type fingerprint struct {
	Ops    int    `json:"ops"`
	Reads  int    `json:"reads"`
	Writes int    `json:"writes"`
	Bytes  uint64 `json:"user_bytes"`
	Hash   uint64 `json:"hash"`
}

func (f *fingerprint) merge(o fingerprint) {
	f.Ops += o.Ops
	f.Reads += o.Reads
	f.Writes += o.Writes
	f.Bytes += o.Bytes
	f.Hash = uint64(fnv(f.Hash).add(o.Hash))
}

// rep is the outcome of one repetition.
type rep struct {
	attempts, failed int
	timedOps         int      // ops completed inside the timed phase, where that differs from attempts (0 = attempts)
	fails            []string // first few failure descriptions
	fp               fingerprint
	lat              []time.Duration // per-op virtual latency, timed phase only

	simT0    time.Duration // virtual start of the timed phase
	simSpan  time.Duration // virtual length of the timed phase
	cpu      time.Duration // Σ cores busy − compute task, timed phase
	idle     time.Duration // Σ cores idle, timed phase
	coreTime time.Duration // Σ cores elapsed, timed phase
	compute  time.Duration // compute task CPU, timed phase (blk_share)

	setup  time.Duration // wall
	host   time.Duration // wall, timed phase
	allocs uint64
	bytes  uint64

	events  uint64             // engine events fired in the timed phase
	chunkNS []float64          // wall ns per engine event, one per ~10 ms chunk of the timed phase
	pool    [2]uint64          // event pool hits, misses in the timed phase
	count   map[string]float64 // layer counter deltas over the timed phase
	tr      *trace.Tracer
	spans   []span
	threads map[int]int   // queue-pair id → generator thread (driver-chain join)
	conns   map[int]int   // fabric endpoint id → generator thread (service-chain join)
	upids   []*uintr.UPID // the UPIDs the benchmark can reach (see upidCounters)
}

const maxFailNotes = 5

// newRep starts a repetition's record on eng: with p.tracer the engine gets
// a tracer, with p.spans the returned recorder is live (nil otherwise).
func newRep(p params, eng *sim.Engine) (*rep, *spanRec) {
	r := &rep{threads: map[int]int{}, conns: map[int]int{}}
	if p.tracer {
		r.tr = newTracer()
		eng.Tracer = r.tr
	}
	if p.spans {
		return r, &spanRec{t0: time.Now()}
	}
	return r, nil
}

// adopt notes that generator thread id owns th: its queue pairs (for the
// driver-chain join) and its UPID (for the notification counters).
func (r *rep) adopt(th *aeodriver.Thread, id int) {
	for _, qp := range th.QueuePairs() {
		r.threads[qp.ID] = id
	}
	r.upids = append(r.upids, th.UPID())
}

func (r *rep) fail(format string, args ...any) {
	r.failed++
	if len(r.fails) < maxFailNotes {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
}

// coreSnap is one core's clock and folded idle time, read while the core is
// not idle.
type coreSnap struct {
	at, idle time.Duration
	ok       bool
}

type snapshot struct {
	at      time.Duration
	cores   []coreSnap
	compute time.Duration
	wall    time.Time
	mem     runtime.MemStats
	stats   sim.EngineStats
	count   map[string]float64
}

// meter brackets the timed phase: virtual time, per-core busy time, host
// wall clock and allocator, engine events and the workload's layer counters.
type meter struct {
	eng      *sim.Engine
	compute  *sim.Task                 // the benchmark's own compute task, if any
	counters func() map[string]float64 // layer counters (cumulative)
	t0, t1   snapshot
	began    bool
	ended    bool
	ticks    []tick // host clock against engine events, one per engine slice of the timed phase
}

// tick is one reading of the host clock and the engine's event count.
type tick struct {
	wall   time.Time
	events uint64
}

// chunkEvents is how many engine events make one host-time chunk: about
// 10 ms of wall time on this machine.
const chunkEvents = 5000

// tickNow records a reading if the timed phase is open. The slicing loop
// calls it between engine slices.
func (m *meter) tickNow() {
	if m.began && !m.ended {
		st := m.eng.Stats()
		m.ticks = append(m.ticks, tick{time.Now(), st.SerialEvents + st.WindowEvents})
	}
}

// chunks cuts the timed phase into stretches of at least chunkEvents engine
// events and returns each stretch's wall nanoseconds per event.
func (m *meter) chunks() []float64 {
	var out []float64
	for i, j := 0, 1; j < len(m.ticks); j++ {
		if n := m.ticks[j].events - m.ticks[i].events; n >= chunkEvents {
			out = append(out, float64(m.ticks[j].wall.Sub(m.ticks[i].wall).Nanoseconds())/float64(n))
			i = j
		}
	}
	return out
}

// snap reads everything at one instant. Core.IdleTime is folded only when a
// core leaves idle, so an idle core is read by a task spawned onto it: the
// task runs as soon as the engine continues and sees its core's idle time
// folded up to that moment. The few hundred nanoseconds of wake-up that
// costs the idle core are part of the measurement, identically on every run.
func (m *meter) snap(s *snapshot, now time.Duration) {
	s.at = now
	s.cores = make([]coreSnap, len(m.eng.Cores()))
	for i, c := range m.eng.Cores() {
		if !c.Idle() {
			s.cores[i] = coreSnap{at: now, idle: c.IdleTime, ok: true}
			continue
		}
		i, c := i, c
		m.eng.Spawn("aeoperf-fold", c, func(env *sim.Env) {
			s.cores[i] = coreSnap{at: env.Now(), idle: c.IdleTime, ok: true}
		})
	}
	if m.compute != nil {
		s.compute = m.compute.CPUTime
	}
	s.count = m.counters()
	for _, c := range m.eng.Cores() {
		s.count["sim.switches"] += float64(c.SwitchCount)
		s.count["sim.irqs"] += float64(c.IRQCount)
		s.count["sim.preempts"] += float64(c.PreemptCount)
	}
	s.stats = m.eng.Stats()
}

// begin opens the timed phase. Host readings are taken last so the
// snapshot's own allocations stay outside.
func (m *meter) begin(now time.Duration) {
	m.snap(&m.t0, now)
	runtime.GC()
	runtime.ReadMemStats(&m.t0.mem)
	m.t0.wall = time.Now()
	m.began = true
}

// end closes the timed phase; host readings are taken first.
func (m *meter) end(now time.Duration) {
	m.t1.wall = time.Now()
	runtime.ReadMemStats(&m.t1.mem)
	m.snap(&m.t1, now)
	m.ended = true
}

// folded reports whether every core snapshot has been taken.
func (m *meter) folded() bool {
	if !m.ended {
		return false
	}
	for _, s := range [][]coreSnap{m.t0.cores, m.t1.cores} {
		for _, c := range s {
			if !c.ok {
				return false
			}
		}
	}
	return true
}

// into writes the phase's deltas into r.
func (m *meter) into(r *rep) {
	r.simT0, r.simSpan = m.t0.at, m.t1.at-m.t0.at
	for i := range m.t0.cores {
		a, b := m.t0.cores[i], m.t1.cores[i]
		r.cpu += (b.at - a.at) - (b.idle - a.idle)
		r.idle += b.idle - a.idle
		r.coreTime += b.at - a.at
	}
	r.compute = m.t1.compute - m.t0.compute
	r.cpu -= r.compute
	r.host = m.t1.wall.Sub(m.t0.wall)
	r.allocs = m.t1.mem.Mallocs - m.t0.mem.Mallocs
	r.bytes = m.t1.mem.TotalAlloc - m.t0.mem.TotalAlloc
	r.events = (m.t1.stats.SerialEvents + m.t1.stats.WindowEvents) -
		(m.t0.stats.SerialEvents + m.t0.stats.WindowEvents)
	r.chunkNS = m.chunks()
	r.pool = [2]uint64{m.t1.stats.PoolHits - m.t0.stats.PoolHits,
		m.t1.stats.PoolMisses - m.t0.stats.PoolMisses}
	r.count = map[string]float64{}
	for k, v := range m.t1.count {
		r.count[k] = v - m.t0.count[k]
	}
}

// runUntil drives the engine in slices of virtual time until done reports
// true, and fails if limit virtual time passes first.
func runUntil(eng *sim.Engine, done func() bool, limit time.Duration) error {
	return (&meter{eng: eng}).run(done, limit, time.Millisecond)
}

// run drives the meter's engine in slices of virtual time until done reports
// true, reading the host clock between slices while the timed phase is open.
// Where done is how a phase boundary is found, the slice is the boundary's
// resolution.
func (m *meter) run(done func() bool, limit, slice time.Duration) error {
	eng := m.eng
	deadline := eng.Now() + limit
	for !done() {
		if eng.Now() >= deadline {
			return fmt.Errorf("virtual-time limit %v passed before the workload finished", limit)
		}
		eng.Run(eng.Now() + slice)
		m.tickNow()
	}
	return nil
}

// gang runs n generator threads through warm-up, a common start line and a
// fixed op count each. The last thread to reach the line opens the timed
// phase and the last to finish closes it.
type gang struct {
	m        *meter
	n        int
	bar, end *sim.Barrier
	arrived  int
	finished int
}

func newGang(m *meter, n int) *gang {
	return &gang{m: m, n: n, bar: sim.NewBarrier(n), end: sim.NewBarrier(n)}
}

func (g *gang) start(env *sim.Env) {
	if g.arrived++; g.arrived == g.n {
		g.m.begin(env.Now())
	}
	g.bar.Wait(env)
}

// finish parks the thread until every thread has finished: a thread that
// exited would orphan the completions of its in-flight asynchronous I/O
// (read-ahead is submitted on the reading thread's queue pair), and whoever
// touched those pages next would wait for ever.
func (g *gang) finish(env *sim.Env) {
	if g.finished++; g.finished == g.n {
		g.m.end(env.Now())
	}
	g.end.Wait(env)
}

func (g *gang) done() bool { return g.finished == g.n }

// sitOut takes a thread whose set-up failed across both lines, so that the
// others are not left waiting for it.
func (g *gang) sitOut(env *sim.Env) {
	g.start(env)
	g.finish(env)
}

// simLimit is the virtual-time ceiling of any repetition.
const simLimit = 120 * time.Second

// lane is one generator thread's private state: its op-stream RNG, its
// latency samples and its share of the load fingerprint.
type lane struct {
	id    int
	rng   *rng
	lat   []time.Duration
	fp    fingerprint
	hash  fnv
	r     *rep
	sr    *spanRec
	nop   int
	think time.Duration // the thread's own CPU (application work), timed phase
}

func newLane(p params, r *rep, sr *spanRec, id, ops int) *lane {
	return &lane{id: id, rng: newRNG(p.seed, id), lat: make([]time.Duration, 0, ops),
		hash: fnvOffset, r: r, sr: sr}
}

// note adds one op to the fingerprint.
func (l *lane) note(write bool, addr uint64, bytes int) {
	l.fp.Ops++
	if write {
		l.fp.Writes++
	} else {
		l.fp.Reads++
	}
	l.fp.Bytes += uint64(bytes)
	w := uint64(0)
	if write {
		w = 1
	}
	l.hash = l.hash.add(w, addr, uint64(bytes))
}

// reset drops what warm-up recorded; called at the start line.
func (l *lane) reset() {
	l.lat, l.fp, l.hash, l.nop, l.think = l.lat[:0], fingerprint{}, fnvOffset, 0, 0
}

// warmup returns the number of untimed ops before the start line: between
// a tenth and a fifth of the timed count, chosen by the seed. The device's
// service-time jitter is one fixed sequence, so on the raw-block workloads
// the seed's only way to reach virtual time is which stretch of that
// sequence the timed phase covers.
func warmup(p params, timed int) int {
	return timed/10 + int(mix64(p.seed^0x77)%uint64(timed/10+1))
}

// collect merges the lanes into the repetition in lane order.
func collect(r *rep, lanes []*lane) {
	for _, l := range lanes {
		l.fp.Hash = uint64(l.hash)
		r.fp.merge(l.fp)
		r.lat = append(r.lat, l.lat...)
		r.attempts += l.fp.Ops
		r.cpu -= l.think
	}
}

// finishGang drives the engine until the gang's timed phase is closed and
// folded, then fills r from the meter, the lanes and the span recorder.
func finishGang(m *meter, g *gang, lanes []*lane, r *rep, sr *spanRec) error {
	if err := m.run(func() bool { return g.done() && m.folded() }, simLimit, time.Millisecond); err != nil {
		return err
	}
	m.into(r)
	collect(r, lanes)
	if sr != nil {
		r.spans = sr.spans
	}
	return nil
}

// upidCounters adds the notification counters of the UPIDs the benchmark can
// reach (its generator threads' and the service dispatchers'); flusher and
// worker threads' UPIDs are private to the program.
func upidCounters(c map[string]float64, upids []*uintr.UPID) {
	for _, u := range upids {
		c["uintr.sent"] += float64(u.NotifySent.Load())
		c["uintr.suppressed"] += float64(u.NotifySuppressed.Load())
	}
}

// traceRing is the traced repetition's event capacity. One shared ring
// (trace.New with no per-core rings) keeps memory proportional to the events
// actually emitted; a traced repetition runs a quarter of the ops (traceOps)
// so that it fits and so that no queue pair wraps its 16-bit command id,
// which the analyzer would report as reuse.
const (
	traceRing = 1 << 22
	traceOps  = 0.25
)

func newTracer() *trace.Tracer { return trace.New(0, traceRing) }
