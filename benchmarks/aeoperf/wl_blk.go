package main

import (
	"fmt"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeokern"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

// Frozen sizes of the raw-block workloads (tuned once for this 2-core box;
// see README "Sizes").
const (
	blkSpanBytes  = 64 << 20 // prefilled span every blk workload reads from
	blkPrefillCmd = 1        // blocks per prefill command (small, so set-up is long enough to time)

	blkQD1Ops = 128_000 // timed ops, 1 thread

	blkShareThreads = 4
	blkShareOps     = 28_500 // timed ops per I/O thread
	blkShareSlice   = 100 * time.Microsecond
	// Without think time blk_share is a deterministic system that locks into
	// one of several long-lived phase regimes chosen by its initial phase
	// (222-279 KIOPS across seeds); a small random think time makes a run an
	// average over them, so a result moves with the code and not the phase.
	blkShareThink = 500 * time.Nanosecond

	blkQD32Threads = 2
	blkQD32Batch   = 32
	blkQD32Batches = 2_150 // timed batches per thread
)

// blkRig is a machine with one process whose partition covers a prefilled
// span of 4 KiB blocks.
type blkRig struct {
	m     *machine.Machine
	proc  *machine.Process
	reg   *region
	units int
	sr    *spanRec
	r     *rep
}

func newBlkRig(p params, cores int) (*blkRig, error) {
	units := p.n(blkSpanBytes/unit, 256)
	m := machine.New(cores, nvme.Config{BlockSize: unit, NumBlocks: uint64(units), Model: p.devModel()})
	r, sr := newRep(p, m.Eng)
	proc, err := m.Launch("aeoperf", aeokern.Partition{Blocks: uint64(units), Writable: true}, aeodriver.Config{})
	if err != nil {
		return nil, err
	}
	rig := &blkRig{m: m, proc: proc, reg: newRegion(p.seed, 1, units), units: units, r: r, sr: sr}
	var perr error
	m.Eng.Spawn("prefill", m.Eng.Core(0), func(env *sim.Env) { perr = rig.prefill(env, p) })
	m.Eng.Run(0)
	if perr != nil {
		return nil, fmt.Errorf("prefill: %w", perr)
	}
	return rig, nil
}

// prefill writes the whole span, reads it back and checks it.
func (g *blkRig) prefill(env *sim.Env, p params) error {
	d := g.proc.Driver
	if _, err := d.CreateQP(env); err != nil {
		return err
	}
	buf := make([]byte, blkPrefillCmd*unit)
	for u := 0; u < g.units; u += blkPrefillCmd {
		n := min(blkPrefillCmd, g.units-u)
		g.reg.fill(buf[:n*unit], u)
		if err := d.WriteBlk(env, uint64(u), uint32(n), buf[:n*unit]); err != nil {
			return err
		}
		g.reg.commit(u, n)
	}
	var floor []uint32
	for u := 0; u < g.units; u += blkPrefillCmd {
		n := min(blkPrefillCmd, g.units-u)
		if err := d.ReadBlk(env, uint64(u), uint32(n), buf[:n*unit]); err != nil {
			return err
		}
		floor = g.reg.floor(floor, u, n)
		if bad := g.reg.verify(buf[:n*unit], u, floor); bad != 0 {
			return fmt.Errorf("read-back of units %d..%d: %d bad", u, u+n, bad)
		}
	}
	if p.corrupt {
		// Self-check (d): unit 0 silently loses its pattern.
		if err := d.WriteBlk(env, 0, 1, make([]byte, unit)); err != nil {
			return err
		}
	}
	return d.DeleteQP(env)
}

// thread gives the calling task its queue pair and registers it.
func (g *blkRig) thread(env *sim.Env, id int) error {
	th, err := g.proc.Driver.CreateQP(env)
	if err == nil {
		g.r.adopt(th, id)
	}
	return err
}

// readOne is one QD1 4 KiB random read, verified. forced >= 0 pins the
// address (self-check (d) aims the first timed read at the corrupted unit).
func (g *blkRig) readOne(env *sim.Env, l *lane, buf []byte, floor *[]uint32, forced int) {
	u := l.rng.intn(g.units)
	if forced >= 0 {
		u = forced
	}
	l.note(false, uint64(u), unit)
	t0 := env.Now()
	sp := g.sr.open(0, "aeodriver", "ReadBlk", l.id, l.nop, t0)
	*floor = g.reg.floor(*floor, u, 1)
	err := g.proc.Driver.ReadBlk(env, uint64(u), 1, buf)
	now := env.Now()
	g.sr.close(sp, now)
	l.nop++
	switch {
	case err != nil:
		l.r.fail("thread %d ReadBlk(%d): %v", l.id, u, err)
	case g.reg.verify(buf, u, *floor) != 0:
		l.r.fail("thread %d ReadBlk(%d): payload mismatch", l.id, u)
	}
	l.lat = append(l.lat, now-t0)
}

// readers spawns n QD1 random-read threads on core 0 and returns their
// lanes. think > 0 makes each thread spend a uniform [0, think) of its own
// CPU after every read (the application touching its data); the benchmark
// subtracts it from the stack's CPU like the compute task's.
func (g *blkRig) readers(p params, gang *gang, n, ops int, think time.Duration) []*lane {
	lanes := make([]*lane, n)
	for i := range lanes {
		l := newLane(p, g.r, g.sr, i, ops)
		lanes[i] = l
		g.m.Eng.Spawn(fmt.Sprintf("io%d", i), g.m.Eng.Core(0), func(env *sim.Env) {
			if err := g.thread(env, l.id); err != nil {
				g.r.fail("thread %d: %v", l.id, err)
				gang.sitOut(env)
				return
			}
			buf := make([]byte, unit)
			var floor []uint32
			for i := warmup(p, ops); i > 0; i-- {
				g.readOne(env, l, buf, &floor, -1)
			}
			l.reset()
			gang.start(env)
			for i := 0; i < ops; i++ {
				forced := -1
				if p.corrupt && l.id == 0 && i == 0 {
					forced = 0
				}
				g.readOne(env, l, buf, &floor, forced)
				if think > 0 {
					d := time.Duration(l.rng.intn(int(think)))
					env.Exec(d)
					l.think += d
				}
			}
			gang.finish(env)
		})
	}
	return lanes
}

func (g *blkRig) counters() map[string]float64 {
	c := map[string]float64{"mpk.gate_calls": float64(g.proc.Gate.Calls)}
	devCounters(c, g.m.Dev)
	upidCounters(c, g.r.upids)
	return c
}

// finish completes the repetition once the generator threads are spawned.
func (g *blkRig) finish(m *meter, gang *gang, lanes []*lane, setup time.Duration) (*rep, error) {
	defer g.m.Eng.Shutdown()
	g.r.setup = setup
	return g.r, finishGang(m, gang, lanes, g.r, g.sr)
}

func runBlkQD1(p params) (*rep, error) {
	t0 := time.Now()
	g, err := newBlkRig(p, 1)
	if err != nil {
		return nil, err
	}
	m := &meter{eng: g.m.Eng, counters: g.counters}
	gang := newGang(m, 1)
	setup := time.Since(t0)
	lanes := g.readers(p, gang, 1, p.nops(blkQD1Ops, 100), 0)
	return g.finish(m, gang, lanes, setup)
}

func runBlkShare(p params) (*rep, error) {
	t0 := time.Now()
	g, err := newBlkRig(p, 1)
	if err != nil {
		return nil, err
	}
	m := &meter{eng: g.m.Eng, counters: g.counters}
	gang := newGang(m, blkShareThreads)
	// The benchmark's own compute task: never blocks, so every completion
	// arrives while another task holds the core.
	m.compute = g.m.Eng.Spawn("compute", g.m.Eng.Core(0), func(env *sim.Env) {
		for !gang.done() {
			env.Exec(blkShareSlice)
		}
	})
	setup := time.Since(t0)
	lanes := g.readers(p, gang, blkShareThreads, p.nops(blkShareOps, 100), blkShareThink)
	return g.finish(m, gang, lanes, setup)
}

// qd32Op is one command of a batch.
type qd32Op struct {
	write bool
	first int // first unit
	n     int // units
}

func runBlkQD32(p params) (*rep, error) {
	t0 := time.Now()
	g, err := newBlkRig(p, blkQD32Threads)
	if err != nil {
		return nil, err
	}
	m := &meter{eng: g.m.Eng, counters: g.counters}
	gang := newGang(m, blkQD32Threads)
	batches := p.nops(blkQD32Batches, 10)
	half := g.units / blkQD32Threads
	lanes := make([]*lane, blkQD32Threads)
	for i := range lanes {
		l := newLane(p, g.r, g.sr, i, batches*blkQD32Batch)
		lanes[i] = l
		g.m.Eng.Spawn(fmt.Sprintf("io%d", i), g.m.Eng.Core(i), func(env *sim.Env) {
			if err := g.thread(env, l.id); err != nil {
				g.r.fail("thread %d: %v", l.id, err)
				gang.sitOut(env)
				return
			}
			b := newQD32Batcher(g, l, half)
			for i := warmup(p, batches*blkQD32Batch) / blkQD32Batch; i > 0; i-- {
				b.run(env)
			}
			l.reset()
			gang.start(env)
			for i := 0; i < batches; i++ {
				b.run(env)
			}
			gang.finish(env)
		})
	}
	return g.finish(m, gang, lanes, time.Since(t0))
}

// qd32Batcher issues batches of 32 mixed commands: 70 % reads anywhere in
// the span, 30 % writes inside the thread's own half (one writer per unit),
// 4 KiB or 16 KiB each. Within a batch no unit is written twice or both
// read and written, so every command's expected payload is exact whatever
// order the device completes them in.
type qd32Batcher struct {
	g      *blkRig
	l      *lane
	lo, n  int      // the thread's writable units
	wstamp []uint32 // batch number that last wrote a unit
	rstamp []uint32 // batch number that last read a unit
	batch  uint32
	ops    [blkQD32Batch]qd32Op
	bufs   [blkQD32Batch][]byte
	floors [blkQD32Batch][]uint32
	rd, wr []aeodriver.IOVec
	rdIdx  []int
	wrIdx  []int
}

func newQD32Batcher(g *blkRig, l *lane, half int) *qd32Batcher {
	b := &qd32Batcher{g: g, l: l, lo: l.id * half, n: half,
		wstamp: make([]uint32, g.units), rstamp: make([]uint32, g.units)}
	for i := range b.bufs {
		b.bufs[i] = make([]byte, 4*unit)
	}
	return b
}

func (b *qd32Batcher) clash(stamps []uint32, first, n int) bool {
	for u := first; u < first+n; u++ {
		if stamps[u] == b.batch {
			return true
		}
	}
	return false
}

func (b *qd32Batcher) draw(i int) {
	r := b.l.rng
	for {
		op := qd32Op{write: r.pct() < 30, n: 1}
		if r.pct() < 50 {
			op.n = 4
		}
		if op.write {
			op.first = b.lo + r.intn(b.n-op.n+1)
		} else {
			op.first = r.intn(b.g.units - op.n + 1)
		}
		if b.clash(b.wstamp, op.first, op.n) || (op.write && b.clash(b.rstamp, op.first, op.n)) {
			continue
		}
		stamps := b.rstamp
		if op.write {
			stamps = b.wstamp
		}
		for u := op.first; u < op.first+op.n; u++ {
			stamps[u] = b.batch
		}
		b.ops[i] = op
		return
	}
}

// run issues one batch: reads and writes go down as one SubmitBatch each
// (the call takes one opcode), then every command is waited for in
// submission order, exactly as WaitAll does, and verified as it returns.
func (b *qd32Batcher) run(env *sim.Env) {
	g, l, d := b.g, b.l, b.g.proc.Driver
	b.batch++
	b.rd, b.wr, b.rdIdx, b.wrIdx = b.rd[:0], b.wr[:0], b.rdIdx[:0], b.wrIdx[:0]
	for i := range b.ops {
		b.draw(i)
		op := b.ops[i]
		buf := b.bufs[i][:op.n*unit]
		l.note(op.write, uint64(op.first), len(buf))
		iov := aeodriver.IOVec{LBA: uint64(op.first), Cnt: uint32(op.n), Buf: buf}
		if op.write {
			g.reg.fill(buf, op.first)
			b.wr, b.wrIdx = append(b.wr, iov), append(b.wrIdx, i)
		} else {
			b.floors[i] = g.reg.floor(b.floors[i], op.first, op.n)
			b.rd, b.rdIdx = append(b.rd, iov), append(b.rdIdx, i)
		}
	}
	t0 := env.Now()
	top := g.sr.open(0, "op", "batch32", l.id, l.nop, t0)
	submit := func(name string, op nvme.Opcode, iov []aeodriver.IOVec) []*aeodriver.Request {
		if len(iov) == 0 {
			return nil
		}
		sp := g.sr.open(top, "aeodriver", name, l.id, l.nop, env.Now())
		reqs, err := d.SubmitBatch(env, op, iov, false)
		g.sr.close(sp, env.Now())
		if err != nil {
			for range iov {
				l.r.fail("thread %d %s: %v", l.id, name, err)
				l.lat = append(l.lat, env.Now()-t0)
			}
		}
		return reqs
	}
	rreqs := submit("SubmitBatch(read)", nvme.OpRead, b.rd)
	wreqs := submit("SubmitBatch(write)", nvme.OpWrite, b.wr)
	sp := g.sr.open(top, "aeodriver", "WaitAll", l.id, l.nop, env.Now())
	for k, req := range rreqs {
		i := b.rdIdx[k]
		op := b.ops[i]
		err := d.Wait(env, req)
		switch {
		case err != nil:
			l.r.fail("thread %d read(%d,%d): %v", l.id, op.first, op.n, err)
		case g.reg.verify(b.bufs[i][:op.n*unit], op.first, b.floors[i]) != 0:
			l.r.fail("thread %d read(%d,%d): payload mismatch", l.id, op.first, op.n)
		}
		l.lat = append(l.lat, env.Now()-t0)
	}
	for k, req := range wreqs {
		op := b.ops[b.wrIdx[k]]
		if err := d.Wait(env, req); err != nil {
			l.r.fail("thread %d write(%d,%d): %v", l.id, op.first, op.n, err)
		}
		g.reg.commit(op.first, op.n)
		l.lat = append(l.lat, env.Now()-t0)
	}
	g.sr.close(sp, env.Now())
	g.sr.close(top, env.Now())
	l.nop++
}

// devCounters adds the device's cumulative counters to c.
func devCounters(c map[string]float64, d *nvme.Device) {
	c["nvme.cmds"] = float64(d.ReadOps + d.WriteOps + d.FlushOps)
	c["nvme.bytes"] = float64(d.BytesRead + d.BytesWrite)
	c["nvme.flushes"] = float64(d.FlushOps)
}
