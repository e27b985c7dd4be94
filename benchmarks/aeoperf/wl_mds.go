package main

import (
	"fmt"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/aeokern"
	"aeolia/internal/aeomds"
	"aeolia/internal/aeosvc"
	"aeolia/internal/machine"
	"aeolia/internal/netsim"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/uintr"
)

// Frozen sizes of the metadata workload.
const (
	mdsShards      = 4
	mdsDataNodes   = 4
	mdsClients     = 8
	mdsClientCores = 4
	mdsOps         = 1_700 // timed ops per client
	mdsPrefill     = 96    // files per client before the run
	mdsMinFiles    = 16    // unlink degrades to stat below this
	mdsFileUnits   = 4     // 16 KiB files: one stripe unit
	mdsPartBlocks  = 1 << 14
)

// mdsFile is one file a client owns: identity (which fixes its content),
// directory and current name.
type mdsFile struct {
	id   int
	dir  int
	name string
}

// mdsGen is one client's generator: the aeomds.Client it drives, the files
// it owns (it is their only writer) and its two private directories.
type mdsGen struct {
	c      *aeomds.Client
	l      *lane
	seed   uint64
	dirs   [2]string
	files  []*mdsFile
	byName [2]map[string]*mdsFile
	nextID int
	buf    []byte
	shards int

	opens, crossShard int // timed-phase counts for the per-layer table
}

func (g *mdsGen) path(f *mdsFile) string { return aeomds.JoinPath(g.dirs[f.dir], f.name) }

func (g *mdsGen) key(f *mdsFile, u int) uint64 {
	return patKey(g.seed, uint64(10+g.l.id), uint64(f.id*mdsFileUnits+u), 1)
}

// call wraps one aeomds.Client call in a span and books its error.
func (g *mdsGen) call(env *sim.Env, top int, name string, fn func() error) bool {
	sp := g.l.sr.open(top, "aeomds", name, g.l.id, g.l.nop, env.Now())
	err := fn()
	g.l.sr.close(sp, env.Now())
	if err != nil {
		g.l.r.fail("client %d %s: %v", g.l.id, name, err)
	}
	return err == nil
}

func (g *mdsGen) add(f *mdsFile) {
	g.files = append(g.files, f)
	g.byName[f.dir][f.name] = f
}

func (g *mdsGen) remove(i int) {
	f := g.files[i]
	delete(g.byName[f.dir], f.name)
	g.files[i] = g.files[len(g.files)-1]
	g.files = g.files[:len(g.files)-1]
}

// create makes a new file in dir: open-create, write its pattern, close.
func (g *mdsGen) create(env *sim.Env, top, dir int) {
	f := &mdsFile{id: g.nextID, dir: dir, name: fmt.Sprintf("f%d", g.nextID)}
	g.nextID++
	p := g.path(f)
	g.l.note(true, uint64(f.id), len(g.buf))
	g.opens++
	for u := 0; u < mdsFileUnits; u++ {
		fillUnit(g.buf[u*unit:(u+1)*unit], g.key(f, u))
	}
	ok := g.call(env, top, "Open(create)", func() error { return g.c.Open(env, p, true, true) })
	ok = ok && g.call(env, top, "WriteAt", func() error {
		n, err := g.c.WriteAt(env, p, g.buf, 0)
		if err == nil && n != len(g.buf) {
			err = fmt.Errorf("short write %d", n)
		}
		return err
	})
	ok = ok && g.call(env, top, "Close", func() error { return g.c.Close(env, p) })
	if ok {
		g.add(f)
	}
}

// one runs one op of the mix and records its latency.
func (g *mdsGen) one(env *sim.Env) {
	r, l := g.l.rng, g.l
	t0 := env.Now()
	k := r.pct()
	pick := r.intn(len(g.files))
	f := g.files[pick]
	if k >= 55 && k < 65 && len(g.files) <= mdsMinFiles {
		k = 0 // too few files to unlink one: stat instead
	}
	var top int
	open := func(name string) { top = l.sr.open(0, "op", name, l.id, l.nop, t0) }
	switch {
	case k < 40: // stat
		open("stat")
		l.note(false, uint64(f.id), 0)
		g.call(env, top, "Stat", func() error {
			resp, err := g.c.Stat(env, g.path(f))
			if err == nil && resp.Size != mdsFileUnits*unit {
				err = fmt.Errorf("size %d, want %d", resp.Size, mdsFileUnits*unit)
			}
			return err
		})
	case k < 55: // create
		open("create")
		g.create(env, top, r.intn(2))
	case k < 65: // unlink, half of them while the file is open (lease revoked)
		open("unlink")
		l.note(true, uint64(f.id), 0)
		p := g.path(f)
		held := r.pct() < 50 && g.call(env, top, "Open", func() error { return g.c.Open(env, p, false, false) })
		if held {
			g.opens++
		}
		if g.call(env, top, "Unlink", func() error { return g.c.Unlink(env, p) }) {
			g.remove(pick)
		}
		if held {
			g.call(env, top, "Close", func() error { return g.c.Close(env, p) })
		}
	case k < 70: // rename, half of them into the other directory
		open("rename")
		l.note(true, uint64(f.id), 0)
		src := g.path(f)
		dst := *f
		dst.name = fmt.Sprintf("r%d", g.nextID)
		g.nextID++
		if r.pct() < 50 {
			dst.dir = 1 - f.dir
		}
		if aeomds.ShardOf(g.dirs[f.dir], g.shards) != aeomds.ShardOf(g.dirs[dst.dir], g.shards) {
			g.crossShard++
		}
		if g.call(env, top, "Rename", func() error { return g.c.Rename(env, src, g.path(&dst)) }) {
			delete(g.byName[f.dir], f.name)
			f.dir, f.name = dst.dir, dst.name
			g.byName[f.dir][f.name] = f
		}
	case k < 75: // readdir
		open("readdir")
		d := r.intn(2)
		l.note(false, uint64(d), 0)
		g.call(env, top, "Readdir", func() error {
			ents, err := g.c.Readdir(env, g.dirs[d])
			if err != nil {
				return err
			}
			if len(ents) != len(g.byName[d]) {
				return fmt.Errorf("%d entries, want %d", len(ents), len(g.byName[d]))
			}
			for _, e := range ents {
				if g.byName[d][e.Name] == nil {
					return fmt.Errorf("unexpected entry %q", e.Name)
				}
			}
			return nil
		})
	default: // open + striped read + close
		open("open-read-close")
		l.note(false, uint64(f.id), len(g.buf))
		g.opens++
		p := g.path(f)
		ok := g.call(env, top, "Open", func() error { return g.c.Open(env, p, false, false) })
		ok = ok && g.call(env, top, "ReadAt", func() error {
			n, err := g.c.ReadAt(env, p, g.buf, 0)
			if err != nil {
				return err
			}
			if n != len(g.buf) {
				return fmt.Errorf("short read %d", n)
			}
			for u := 0; u < mdsFileUnits; u++ {
				if !checkUnit(g.buf[u*unit:(u+1)*unit], g.key(f, u)) {
					return fmt.Errorf("payload mismatch in unit %d of file %d", u, f.id)
				}
			}
			return nil
		})
		if ok {
			g.call(env, top, "Close", func() error { return g.c.Close(env, p) })
		}
	}
	now := env.Now()
	l.sr.close(top, now)
	l.lat = append(l.lat, now-t0)
	l.nop++
}

func runMDSMix(p params) (*rep, error) {
	t0 := time.Now()
	const cores = 1 + 2*mdsDataNodes + mdsShards + mdsClientCores
	m := machine.New(cores, nvme.Config{BlockSize: aeofs.BlockSize,
		NumBlocks: mdsDataNodes * mdsPartBlocks, Model: p.devModel()})
	defer m.Eng.Shutdown()
	r, sr := newRep(p, m.Eng)
	// Data servers first: BuildFS drains the engine, so no server loop may
	// be live yet.
	var fis []*machine.FSInstance
	for i := 0; i < mdsDataNodes; i++ {
		fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{
			Partition: aeokern.Partition{Start: uint64(i) * mdsPartBlocks, Blocks: mdsPartBlocks, Writable: true},
			Journals:  8,
		})
		if err != nil {
			return nil, fmt.Errorf("data node %d: %w", i, err)
		}
		fis = append(fis, fi)
	}
	fab := netsim.New(m.Eng, p.seed)
	fsts := make([]*aeosvc.Server, mdsDataNodes)
	dataEPs := make([]string, mdsDataNodes)
	for i, fi := range fis {
		dataEPs[i] = fmt.Sprintf("fst%d", i)
		fsts[i] = aeosvc.NewServer(fab, m.Kern, fi.Proc.Gate, fi.FS, aeosvc.Config{Endpoint: dataEPs[i]})
		fsts[i].Start(m.Eng.Core(1+2*i), []*sim.Core{m.Eng.Core(2 + 2*i)})
	}
	svc := aeomds.NewService(fab, aeomds.Config{Shards: mdsShards, DataNodes: mdsDataNodes})
	shardCores := make([]*sim.Core, mdsShards)
	for i := range shardCores {
		shardCores[i] = m.Eng.Core(1 + 2*mdsDataNodes + i)
	}
	svc.Start(shardCores)
	for i := 0; i < mdsShards; i++ {
		for j := 0; j < mdsShards; j++ {
			if i != j {
				fab.Connect(aeomds.ShardEndpoint(i), aeomds.ShardEndpoint(j), fabricLink)
			}
		}
	}

	meter := &meter{eng: m.Eng, counters: func() map[string]float64 {
		c := map[string]float64{
			"aeomds.granted": float64(svc.Granted), "aeomds.revokes": float64(svc.RevokesSent),
		}
		devCounters(c, m.Dev)
		linkCounters(c, fab)
		for i, fi := range fis {
			c["mpk.gate_calls"] += float64(fi.Proc.Gate.Calls)
			cacheCounters(c, fi.AeoFS.CacheStats())
			upidCounters(c, []*uintr.UPID{fsts[i].UPID()})
			st := fsts[i].Stats()
			c["aeosvc.received"] += float64(st.Received)
			c["aeosvc.shed"] += float64(st.Shed)
		}
		return c
	}}
	gang := newGang(meter, mdsClients)
	ops := p.nops(mdsOps, 30)
	gens := make([]*mdsGen, mdsClients)
	lanes := make([]*lane, mdsClients)
	ready := 0
	for i := range gens {
		c := aeomds.NewClient(fab, aeomds.ClientConfig{ID: i, Shards: mdsShards, DataEndpoints: dataEPs})
		ep := aeomds.ClientEndpoint(i)
		for s := 0; s < mdsShards; s++ {
			fab.Connect(ep, aeomds.ShardEndpoint(s), fabricLink)
			fab.Connect(aeomds.ShardEndpoint(s), ep, fabricLink)
		}
		for _, d := range dataEPs {
			fab.Connect(ep, d, fabricLink)
			fab.Connect(d, ep, fabricLink)
		}
		r.conns[c.Endpoint().ID()] = i
		l := newLane(p, r, sr, i, ops)
		g := &mdsGen{c: c, l: l, seed: p.seed, shards: mdsShards,
			dirs:   [2]string{fmt.Sprintf("/c%da", i), fmt.Sprintf("/c%db", i)},
			byName: [2]map[string]*mdsFile{{}, {}}, buf: make([]byte, mdsFileUnits*unit)}
		gens[i], lanes[i] = g, l
		m.Eng.Spawn(fmt.Sprintf("mdc%d", i), m.Eng.Core(1+2*mdsDataNodes+mdsShards+i%mdsClientCores), func(env *sim.Env) {
			for _, d := range g.dirs {
				g.call(env, 0, "Mkdir", func() error { return g.c.Mkdir(env, d) })
			}
			for k := 0; k < p.n(mdsPrefill, mdsMinFiles+4); k++ {
				g.create(env, 0, k%2)
			}
			if ready++; ready == mdsClients {
				r.setup = time.Since(t0)
			}
			for k := warmup(p, ops); k > 0 && len(g.files) > 0; k-- {
				g.one(env)
			}
			l.reset()
			g.opens, g.crossShard = 0, 0
			gang.start(env)
			for k := 0; k < ops && len(g.files) > 0; k++ {
				g.one(env)
			}
			gang.finish(env)
		})
	}
	if err := finishGang(meter, gang, lanes, r, sr); err != nil {
		return nil, err
	}
	svc.Stop()
	for _, s := range fsts {
		s.Stop()
	}
	m.Eng.Run(m.Eng.Now() + time.Millisecond)
	for _, g := range gens {
		r.count["aeomds.opens"] += float64(g.opens)
		r.count["aeomds.cross_shard"] += float64(g.crossShard)
	}
	if err := svc.Err(); err != nil {
		r.fail("mds: %v", err)
	}
	if err := svc.CheckAccounting(); err != nil {
		r.fail("mds accounting: %v", err)
	}
	for i, s := range fsts {
		if err := s.Err(); err != nil {
			r.fail("data node %d: %v", i, err)
		}
		if err := s.CheckAccounting(); err != nil {
			r.fail("data node %d accounting: %v", i, err)
		}
	}
	return r, nil
}
