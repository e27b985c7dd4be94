package attack

// antagonist.go extends the attack suite from correctness (can untrusted
// code corrupt state?) to performance isolation (can a misbehaving tenant
// destroy another tenant's tail latency?). Three antagonists exercise the
// QoS machinery from different angles: a CPU hog contends the scheduler on
// a handler core, an IO flood hammers the service on a low-priority
// tenant, and a cache thrasher churns the shared page cache. Each runs
// until stopped; the fig_slo experiment measures the urgent tenant's
// p99/p99.9 with the antagonists live and SLO enforcement on or off.

import (
	"fmt"
	"math/rand"
	"time"

	"aeolia/internal/aeosvc"
	"aeolia/internal/netsim"
	"aeolia/internal/sim"
	"aeolia/internal/uintr"
	"aeolia/internal/vfs"
)

// prefillChunk bounds each setup write so the antagonists' scratch files
// never dirty more pages in one insert than a bounded page cache can hold.
const prefillChunk = 1 << 16

// Antagonist is one running adversarial background load.
type Antagonist struct {
	// Name identifies the antagonist kind ("cpu_hog", "io_flood",
	// "cache_thrash").
	Name string
	// Ops counts the adversarial operations completed (informational).
	Ops uint64

	stopped *bool
}

// Stop asks the antagonist to wind down. Safe to call from outside the
// engine; the antagonist's task observes the flag at its next iteration,
// so drive the engine briefly afterwards to let in-flight work retire.
func (a *Antagonist) Stop() { *a.stopped = true }

// SpawnCPUHog pins a pure-compute task to core: it never blocks and never
// yields voluntarily, so every handler and worker sharing the core must
// win the scheduler against it (slice expiry or wakeup preemption).
func SpawnCPUHog(eng *sim.Engine, core *sim.Core) *Antagonist {
	a := &Antagonist{Name: "cpu_hog", stopped: new(bool)}
	eng.Spawn("antag-cpu-hog", core, func(env *sim.Env) {
		for !*a.stopped {
			env.Exec(5 * time.Microsecond)
			a.Ops++
		}
	})
	return a
}

// thrashPath is the cache thrasher's scratch file, and thrashFileBytes its
// working set: at or above the page cache budget, so every pass evicts other
// tenants' pages.
const (
	thrashPath      = "/antag-thrash.dat"
	thrashFileBytes = 1 << 20
)

// ThrashConfig sizes a cache thrasher.
type ThrashConfig struct {
	// IOBytes per read (default 4096).
	IOBytes int
	Seed    int64
}

func (c ThrashConfig) ioBytes() int {
	if c.IOBytes <= 0 {
		return 4096
	}
	return c.IOBytes
}

// SpawnCacheThrasher runs random reads over a scratch file through the
// shared file system, evicting the page cache's resident set out from
// under every other tenant (the PR 5 cache has a global budget).
func SpawnCacheThrasher(eng *sim.Engine, core *sim.Core, fs vfs.FileSystem, cfg ThrashConfig) *Antagonist {
	a := &Antagonist{Name: "cache_thrash", stopped: new(bool)}
	eng.Spawn("antag-cache-thrash", core, func(env *sim.Env) {
		if init, ok := fs.(vfs.PerThreadInit); ok {
			if err := init.InitThread(env); err != nil {
				return
			}
		}
		fd, err := fs.Open(env, thrashPath, vfs.O_CREATE|vfs.O_RDWR)
		if err != nil {
			return
		}
		defer fs.Close(env, fd)
		// Prefill in chunks: a single working-set-sized write would dirty
		// more pages at once than any bounded cache can hold.
		chunk := make([]byte, prefillChunk)
		for off := 0; off < thrashFileBytes; off += prefillChunk {
			if _, err := fs.WriteAt(env, fd, chunk, uint64(off)); err != nil {
				return
			}
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		buf := make([]byte, cfg.ioBytes())
		slots := max(thrashFileBytes/cfg.ioBytes(), 1)
		for !*a.stopped {
			off := uint64(rng.Intn(slots) * cfg.ioBytes())
			if _, err := fs.ReadAt(env, fd, buf, off); err != nil {
				return
			}
			a.Ops++
		}
	})
	return a
}

// The IO flood keeps floodQD reads of floodIOBytes in flight over a private
// file of floodFileBytes. After a throttled reply it parks floodThrottle:
// the flood never backs off exponentially — it re-offers at this cadence
// forever — but the park keeps the shed/retry loop from saturating the
// dispatcher instead of the workers.
const (
	floodQD        = 16
	floodIOBytes   = 16 << 10
	floodFileBytes = 1 << 20
	floodThrottle  = 50 * time.Microsecond
)

// FloodConfig sizes an IO-flood antagonist.
type FloodConfig struct {
	// Tenant is the flood's tenant id — configure it on a low class with a
	// tight rate so enforcement can contain it. Its requests are stamped
	// ClassBulk on the wire (advisory; see aeosvc.Request.Class).
	Tenant uint16
	Seed   int64
	// Link configures the flood's fabric links to the service.
	Link netsim.Config
}

// SpawnIOFlood drives an open-throttle request storm at the service from a
// dedicated endpoint: QD-deep reads with no backoff — a throttled reply is
// immediately resent under a fresh id. It models the misbehaving batch
// tenant the SLO must hold against. The flood connects its own fabric
// links; stop it BEFORE stopping the server so in-flight replies drain.
func SpawnIOFlood(eng *sim.Engine, fab *netsim.Fabric, svc string, core *sim.Core, cfg FloodConfig) *Antagonist {
	a := &Antagonist{Name: "io_flood", stopped: new(bool)}
	name := fmt.Sprintf("antag-flood-%d", cfg.Tenant)
	ep := fab.Endpoint(name)
	fab.Connect(name, svc, cfg.Link)
	fab.Connect(svc, name, cfg.Link)
	eng.Spawn(name, core, func(env *sim.Env) {
		var nextID uint64 = 1
		send := func(req aeosvc.Request) (uint64, bool) {
			req.ID = nextID
			nextID++
			for {
				err := ep.Send(env, svc, req.Encode())
				if err == nil {
					return req.ID, true
				}
				// Link backpressure: the flood shoves, it doesn't yield.
				env.Sleep(2 * time.Microsecond)
				if *a.stopped {
					return 0, false
				}
			}
		}
		recv := func() (aeosvc.Response, bool) {
			m := ep.Recv(env)
			resp, err := aeosvc.DecodeResponse(m.Payload)
			return resp, err == nil
		}
		call := func(req aeosvc.Request) (aeosvc.Response, bool) {
			for {
				if _, ok := send(req); !ok {
					return aeosvc.Response{}, false
				}
				resp, ok := recv()
				if !ok {
					return resp, false
				}
				if resp.Status == aeosvc.StatusThrottled {
					env.Sleep(floodThrottle)
					continue
				}
				return resp, true
			}
		}

		base := aeosvc.Request{Tenant: cfg.Tenant, Class: uint8(uintr.ClassBulk)}
		open := base
		open.Op = aeosvc.OpOpen
		open.Path = fmt.Sprintf("/%s.dat", name)
		resp, ok := call(open)
		if !ok || resp.Status != aeosvc.StatusOK {
			return
		}
		fd := resp.Value
		// Prefill in chunks (see SpawnCacheThrasher): one giant write would
		// overrun the server-side page cache's budget in a single insert.
		for off := 0; off < floodFileBytes; off += prefillChunk {
			prefill := base
			prefill.Op = aeosvc.OpWrite
			prefill.FD = fd
			prefill.Off = uint64(off)
			prefill.Data = make([]byte, prefillChunk)
			if resp, ok = call(prefill); !ok || resp.Status != aeosvc.StatusOK {
				return
			}
		}

		rng := rand.New(rand.NewSource(cfg.Seed))
		const slots = floodFileBytes / floodIOBytes
		inflight := 0
		for {
			for inflight < floodQD && !*a.stopped {
				req := base
				req.Op = aeosvc.OpRead
				req.FD = fd
				req.Off = uint64(rng.Intn(slots) * floodIOBytes)
				req.Len = uint32(floodIOBytes)
				if _, ok := send(req); !ok {
					break
				}
				inflight++
			}
			if inflight == 0 {
				return // stopped with nothing left to drain
			}
			resp, ok := recv()
			if !ok {
				return
			}
			inflight--
			if resp.Status == aeosvc.StatusThrottled {
				env.Sleep(floodThrottle)
				continue
			}
			a.Ops++
		}
	})
	return a
}
