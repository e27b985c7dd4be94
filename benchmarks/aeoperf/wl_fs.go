package main

import (
	"fmt"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeofs"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/vfs"
)

// Frozen sizes of the file-system workloads.
const (
	fsDevBlocks = 1 << 16 // 256 MiB device (sparse)

	fsHitFiles        = 8
	fsHitFileBytes    = 1 << 20
	fsHitReaders      = 3
	fsHitPrefillChunk = 1      // units per prefill call (small, so set-up is long enough to time)
	fsHitReadOps      = 57_000 // timed reads per reader
	fsHitWriteOps     = 38_000 // timed overwrites of the one writer
	// Uniform access over 2048 resident pages makes a reader meet the
	// writer on the same page in 0.05 % of reads, below p99.9: the tail
	// would be the median. A quarter of all accesses therefore go to one
	// hot page per file (an application's header block), which makes
	// range-lock waits a measurable 1 % of ops.
	fsHitHotPct = 25

	fsSpillFiles        = 64
	fsSpillFileBytes    = 512 << 10
	fsSpillCacheBytes   = 8 << 20
	fsSpillPrefillChunk = 16
	fsSpillMixOps       = 4_000 // timed ops of the mixed thread
	fsSpillScanOps      = 7_500 // timed 4 KiB reads of the scanning thread
	fsSpillMaxUnits     = 16    // largest update, in 4 KiB units
)

// fsRig is a machine with a default AeoFS mount and a set of prefilled
// files of equal size.
type fsRig struct {
	m     *machine.Machine
	fi    *machine.FSInstance
	fs    vfs.FileSystem
	reg   *region
	files int
	upf   int // units per file
	chunk int // units per prefill call
	sr    *spanRec
	r     *rep
}

func filePath(i int) string { return fmt.Sprintf("/f%02d", i) }

func newFSRig(p params, cores, files, fileBytes, prefillChunk int, cache aeofs.CacheConfig) (*fsRig, error) {
	m := machine.New(cores, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: fsDevBlocks, Model: p.devModel()})
	r, sr := newRep(p, m.Eng)
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{Cache: cache})
	if err != nil {
		return nil, err
	}
	upf := p.n(fileBytes/unit, 8)
	g := &fsRig{m: m, fi: fi, fs: fi.FS, files: files, upf: upf, chunk: prefillChunk,
		reg: newRegion(p.seed, 2, files*upf), r: r, sr: sr}
	var perr error
	done := false
	m.Eng.Spawn("prefill", m.Eng.Core(0), func(env *sim.Env) {
		perr = g.prefill(env, p)
		done = true
	})
	// A bounded cache keeps a flusher thread alive, so the calendar never
	// empties: run until the prefill task says so.
	if err := runUntil(m.Eng, func() bool { return done }, simLimit); err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, fmt.Errorf("prefill: %w", perr)
	}
	return g, nil
}

// prefill creates every file, writes its pattern, makes it durable, reads
// it back and checks it.
func (g *fsRig) prefill(env *sim.Env, p params) error {
	if err := g.fs.(vfs.PerThreadInit).InitThread(env); err != nil {
		return err
	}
	chunk := g.chunk
	buf := make([]byte, chunk*unit)
	var floor []uint32
	for f := 0; f < g.files; f++ {
		fd, err := g.fs.Open(env, filePath(f), vfs.O_CREATE|vfs.O_RDWR)
		if err != nil {
			return err
		}
		for u := 0; u < g.upf; u += chunk {
			n := min(chunk, g.upf-u)
			g.reg.fill(buf[:n*unit], f*g.upf+u)
			if _, err := g.fs.WriteAt(env, fd, buf[:n*unit], uint64(u*unit)); err != nil {
				return err
			}
			g.reg.commit(f*g.upf+u, n)
			// Durable chunk by chunk: a freshly written page is born
			// unreferenced, and on a bounded cache the next chunk's charge
			// could evict it while the flusher holds it in a stale dirty
			// list (README, "Program defects", 3).
			if err := g.fs.Fsync(env, fd); err != nil {
				return err
			}
		}
		if p.corrupt && f == 0 {
			// Self-check (d): file 0's first unit silently loses its pattern.
			if _, err := g.fs.WriteAt(env, fd, make([]byte, unit), 0); err != nil {
				return err
			}
		}
		if err := g.fs.Close(env, fd); err != nil {
			return err
		}
	}
	for f := 0; f < g.files; f++ {
		fd, err := g.fs.Open(env, filePath(f), vfs.O_RDONLY)
		if err != nil {
			return err
		}
		for u := 0; u < g.upf; u += chunk {
			n := min(chunk, g.upf-u)
			if _, err := g.fs.ReadAt(env, fd, buf[:n*unit], uint64(u*unit)); err != nil {
				return err
			}
			floor = g.reg.floor(floor, f*g.upf+u, n)
			if bad := g.reg.verify(buf[:n*unit], f*g.upf+u, floor); bad != 0 && !(p.corrupt && f == 0 && u == 0) {
				return fmt.Errorf("read-back of %s units %d..%d: %d bad", filePath(f), u, u+n, bad)
			}
		}
		if err := g.fs.Close(env, fd); err != nil {
			return err
		}
	}
	return nil
}

// fsThread is one generator thread on the mount: its lane plus an open fd
// for every file.
type fsThread struct {
	g     *fsRig
	l     *lane
	fds   []int
	buf   []byte
	floor []uint32
}

// spawn starts a generator thread: per-thread init, open every file, run
// warm, cross the start line, run timed.
func (g *fsRig) spawn(gang *gang, l *lane, core int, flags int, bufBytes int, warm, timed func(env *sim.Env, t *fsThread)) {
	g.m.Eng.Spawn(fmt.Sprintf("gen%d", l.id), g.m.Eng.Core(core), func(env *sim.Env) {
		t := &fsThread{g: g, l: l, buf: make([]byte, bufBytes)}
		err := g.fs.(vfs.PerThreadInit).InitThread(env)
		if err == nil {
			// InitThread is CreateQP under the adapter; ask again (it is
			// idempotent per task) to learn the thread's queue pairs.
			var th *aeodriver.Thread
			th, err = g.fi.AeoFS.Driver().CreateQP(env)
			if err == nil {
				g.r.adopt(th, l.id)
			}
		}
		for f := 0; err == nil && f < g.files; f++ {
			var fd int
			fd, err = g.fs.Open(env, filePath(f), flags)
			t.fds = append(t.fds, fd)
		}
		if err != nil {
			g.r.fail("thread %d init: %v", l.id, err)
			gang.sitOut(env)
			return
		}
		warm(env, t)
		l.reset()
		gang.start(env)
		timed(env, t)
		gang.finish(env)
	})
}

// read is one verified ReadAt of n units at unit u of file f; under a parent
// span it is part of a composite op and records no sample.
func (t *fsThread) read(env *sim.Env, parent int, f, u, n int) {
	g, l := t.g, t.l
	first := f*g.upf + u
	buf := t.buf[:n*unit]
	if parent == 0 {
		l.note(false, uint64(first), len(buf))
	}
	t0 := env.Now()
	sp := g.sr.open(parent, "aeofs", "ReadAt", l.id, l.nop, t0)
	t.floor = g.reg.floor(t.floor, first, n)
	got, err := g.fs.ReadAt(env, t.fds[f], buf, uint64(u*unit))
	now := env.Now()
	g.sr.close(sp, now)
	switch {
	case err != nil:
		l.r.fail("thread %d ReadAt(%s,%d,%d): %v", l.id, filePath(f), u, n, err)
	case got != len(buf):
		l.r.fail("thread %d ReadAt(%s,%d,%d): short read %d", l.id, filePath(f), u, n, got)
	case g.reg.verify(buf, first, t.floor) != 0:
		l.r.fail("thread %d ReadAt(%s,%d,%d): payload mismatch", l.id, filePath(f), u, n)
	}
	if parent == 0 {
		l.lat = append(l.lat, now-t0)
		l.nop++
	}
}

// write is one WriteAt of the next generation of n units at unit u of file
// f; under a parent span it is part of a composite op and records no sample.
func (t *fsThread) write(env *sim.Env, parent, f, u, n int) {
	g, l := t.g, t.l
	first := f*g.upf + u
	buf := t.buf[:n*unit]
	if parent == 0 {
		l.note(true, uint64(first), len(buf))
	}
	g.reg.fill(buf, first)
	t0 := env.Now()
	sp := g.sr.open(parent, "aeofs", "WriteAt", l.id, l.nop, t0)
	got, err := g.fs.WriteAt(env, t.fds[f], buf, uint64(u*unit))
	now := env.Now()
	g.sr.close(sp, now)
	g.reg.commit(first, n)
	if err != nil || got != len(buf) {
		l.r.fail("thread %d WriteAt(%s,%d,%d): n=%d err=%v", l.id, filePath(f), u, n, got, err)
	}
	if parent == 0 {
		l.lat = append(l.lat, now-t0)
		l.nop++
	}
}

func (g *fsRig) counters() map[string]float64 {
	c := map[string]float64{"mpk.gate_calls": float64(g.fi.Proc.Gate.Calls)}
	devCounters(c, g.m.Dev)
	cacheCounters(c, g.fi.AeoFS.CacheStats())
	upidCounters(c, g.r.upids)
	return c
}

func cacheCounters(c map[string]float64, s aeofs.CacheStats) {
	c["aeofs.hits"] += float64(s.Hits)
	c["aeofs.misses"] += float64(s.Misses)
	c["aeofs.fast_reads"] += float64(s.FastReads)
	c["aeofs.evictions"] += float64(s.Evictions)
	c["aeofs.dirty_evictions"] += float64(s.DirtyEvictions)
	c["aeofs.readahead_issued"] += float64(s.ReadaheadIssued)
	c["aeofs.readahead_hits"] += float64(s.ReadaheadHits)
	c["aeofs.writeback_pages"] += float64(s.WritebackPages)
	c["aeofs.writeback_runs"] += float64(s.WritebackRuns)
	c["aeofs.throttled"] += float64(s.Throttled)
}

func (g *fsRig) finish(m *meter, gang *gang, lanes []*lane, setup time.Duration) (*rep, error) {
	defer g.m.Eng.Shutdown()
	g.r.setup = setup
	return g.r, finishGang(m, gang, lanes, g.r, g.sr)
}

// hitAddr draws fs_hit's next (file, unit): the file's hot first page a
// quarter of the time, else uniform.
func hitAddr(r *rng, g *fsRig) (f, u int) {
	f = r.intn(g.files)
	if r.pct() >= fsHitHotPct {
		u = r.intn(g.upf)
	}
	return f, u
}

func runFSHit(p params) (*rep, error) {
	t0 := time.Now()
	g, err := newFSRig(p, 4, fsHitFiles, fsHitFileBytes, fsHitPrefillChunk, aeofs.CacheConfig{})
	if err != nil {
		return nil, err
	}
	m := &meter{eng: g.m.Eng, counters: g.counters}
	gang := newGang(m, fsHitReaders+1)
	rops, wops := p.nops(fsHitReadOps, 100), p.nops(fsHitWriteOps, 100)
	var lanes []*lane
	for i := 0; i < fsHitReaders; i++ {
		l := newLane(p, g.r, g.sr, i, rops)
		lanes = append(lanes, l)
		loop := func(n int, corrupt bool) func(*sim.Env, *fsThread) {
			return func(env *sim.Env, t *fsThread) {
				for i := 0; i < n; i++ {
					f, u := hitAddr(l.rng, g)
					if corrupt && l.id == 0 && i == 0 {
						f, u = 0, 0
					}
					t.read(env, 0, f, u, 1)
				}
			}
		}
		g.spawn(gang, l, i, vfs.O_RDONLY, unit, loop(warmup(p, rops), false), loop(rops, p.corrupt))
	}
	w := newLane(p, g.r, g.sr, fsHitReaders, wops)
	lanes = append(lanes, w)
	loop := func(n int) func(*sim.Env, *fsThread) {
		return func(env *sim.Env, t *fsThread) {
			for i := 0; i < n; i++ {
				f, u := hitAddr(w.rng, g)
				t.write(env, 0, f, u, 1)
			}
		}
	}
	g.spawn(gang, w, fsHitReaders, vfs.O_RDWR, unit, loop(warmup(p, wops)), loop(wops))
	return g.finish(m, gang, lanes, time.Since(t0))
}

func runFSSpill(p params) (*rep, error) {
	t0 := time.Now()
	// The background flusher gets a core of its own (topology, not a
	// mechanism): sharing the mixed thread's core (the default, core 0) it
	// can be starved for milliseconds, pages then stay dirty long enough for
	// the CLOCK hand to evict them, and a dirty eviction racing the flusher
	// loses data (README, "Program defects", 3).
	g, err := newFSRig(p, 3, fsSpillFiles, fsSpillFileBytes, fsSpillPrefillChunk, aeofs.CacheConfig{
		CacheBytes:  uint64(p.n(fsSpillCacheBytes, 512<<10)),
		FlusherCore: 2,
	})
	if err != nil {
		return nil, err
	}
	m := &meter{eng: g.m.Eng, counters: g.counters}
	gang := newGang(m, 2)
	mixOps, scanOps := p.nops(fsSpillMixOps, 100), p.nops(fsSpillScanOps, 100)

	// Thread 0: the mixed thread, the mount's only writer.
	mix := newLane(p, g.r, g.sr, 0, mixOps)
	maxUnits := min(fsSpillMaxUnits, g.upf)
	tmp := 0
	mixLoop := func(n int, corrupt bool) func(*sim.Env, *fsThread) {
		return func(env *sim.Env, t *fsThread) {
			for i := 0; i < n; i++ {
				r := mix.rng
				f, sz := r.intn(g.files), 1+r.intn(maxUnits)
				u := r.intn(g.upf - sz + 1)
				switch k := r.pct(); {
				case corrupt && i == 0:
					t.read(env, 0, 0, 0, 1)
				case k < 60:
					t.read(env, 0, f, u, 1)
				case k < 90:
					t.update(env, f, u, sz)
				case k < 95:
					t.fsync(env, f)
				default:
					tmp++
					t.createWriteUnlink(env, fmt.Sprintf("/t%d", tmp), 1+r.intn(4))
				}
			}
		}
	}
	g.spawn(gang, mix, 0, vfs.O_RDWR, fsSpillMaxUnits*unit, mixLoop(warmup(p, mixOps), false), mixLoop(mixOps, p.corrupt))

	// Thread 1: whole-file sequential scans, file after file.
	scan := newLane(p, g.r, g.sr, 1, scanOps)
	f, u := scan.rng.intn(g.files), 0
	scanLoop := func(n int) func(*sim.Env, *fsThread) {
		return func(env *sim.Env, t *fsThread) {
			for i := 0; i < n; i++ {
				t.read(env, 0, f, u, 1)
				if u++; u == g.upf {
					f, u = (f+1)%g.files, 0
				}
			}
		}
	}
	g.spawn(gang, scan, 1, vfs.O_RDONLY, unit, scanLoop(warmup(p, scanOps)), scanLoop(scanOps))
	return g.finish(m, gang, []*lane{mix, scan}, time.Since(t0))
}

// update is one read-modify-write of n units at unit u of file f: each unit
// is read (4 KiB at a time) and checked, then all are overwritten with their
// next generation in one WriteAt. Reading first makes every written page
// resident and referenced, which keeps dirty pages out of the CLOCK hand's
// reach (README, "Program defects", 3).
func (t *fsThread) update(env *sim.Env, f, u, n int) {
	g, l := t.g, t.l
	l.note(true, uint64(f*g.upf+u), n*unit)
	t0 := env.Now()
	top := g.sr.open(0, "op", "update", l.id, l.nop, t0)
	for i := 0; i < n; i++ {
		t.read(env, top, f, u+i, 1)
	}
	t.write(env, top, f, u, n)
	now := env.Now()
	g.sr.close(top, now)
	l.lat = append(l.lat, now-t0)
	l.nop++
}

// fsync is one Fsync of file f.
func (t *fsThread) fsync(env *sim.Env, f int) {
	g, l := t.g, t.l
	l.note(true, uint64(f), 0)
	t0 := env.Now()
	sp := g.sr.open(0, "aeofs", "Fsync", l.id, l.nop, t0)
	err := g.fs.Fsync(env, t.fds[f])
	now := env.Now()
	g.sr.close(sp, now)
	if err != nil {
		l.r.fail("thread %d Fsync(%s): %v", l.id, filePath(f), err)
	}
	l.lat = append(l.lat, now-t0)
	l.nop++
}

// createWriteUnlink is one composite op: create a small file, write n
// units, close and unlink it. The file is not read back: its pages are born
// dirty and unreferenced, the one shape the mount cannot keep safe (README,
// "Program defects", 3), and nothing else ever reads them.
func (t *fsThread) createWriteUnlink(env *sim.Env, path string, n int) {
	g, l := t.g, t.l
	l.note(true, uint64(n), n*unit)
	buf := t.buf[:n*unit]
	fillUnit(buf, patKey(g.reg.seed, 3, uint64(l.nop), 1))
	t0 := env.Now()
	top := g.sr.open(0, "op", "create-write-unlink", l.id, l.nop, t0)
	call := func(name string, fn func() error) bool {
		sp := g.sr.open(top, "aeofs", name, l.id, l.nop, env.Now())
		err := fn()
		g.sr.close(sp, env.Now())
		if err != nil {
			l.r.fail("thread %d %s(%s): %v", l.id, name, path, err)
		}
		return err == nil
	}
	var fd int
	ok := call("Open", func() (err error) {
		fd, err = g.fs.Open(env, path, vfs.O_CREATE|vfs.O_RDWR)
		return err
	})
	if ok {
		call("WriteAt", func() error {
			got, err := g.fs.WriteAt(env, fd, buf, 0)
			if err == nil && got != len(buf) {
				err = fmt.Errorf("short write %d", got)
			}
			return err
		})
		call("Close", func() error { return g.fs.Close(env, fd) })
		call("Unlink", func() error { return g.fs.Unlink(env, path) })
	}
	now := env.Now()
	g.sr.close(top, now)
	l.lat = append(l.lat, now-t0)
	l.nop++
}
