package main

import (
	"fmt"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeokern"
	"aeolia/internal/aeomds"
	"aeolia/internal/aeosvc"
	"aeolia/internal/machine"
	"aeolia/internal/netsim"
	"aeolia/internal/nvme"
	"aeolia/internal/raft"
	"aeolia/internal/sched"
	"aeolia/internal/sim"
	"aeolia/internal/trace"
	"aeolia/internal/uintr"
	"aeolia/internal/vfs"
	"aeolia/internal/wire"
)

// Probes: one layer's public function in a standalone loop of fixed length,
// timed on the host clock. They give a layer's host cost in isolation, so a
// change in a workload's host_ns_per_op can be laid at one layer's door.
// Each returns host nanoseconds per iteration.

// timeLoop runs setup-free body n times and returns ns per iteration.
func timeLoop(n int, body func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		body(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// inTask runs body as the only task of a fresh one-core machine and returns
// what it returns.
func inTask(m *machine.Machine, body func(env *sim.Env) float64) float64 {
	defer m.Eng.Shutdown()
	var out float64
	m.Eng.Spawn("probe", m.Eng.Core(0), func(env *sim.Env) { out = body(env) })
	m.Eng.Run(0)
	return out
}

func probeMachine() *machine.Machine {
	return machine.New(1, nvme.Config{BlockSize: unit, NumBlocks: 1 << 14})
}

// probeSwitch: Env.Sleep, one block and one timer wake-up per iteration —
// the engine's task-switch floor.
func probeSwitch() float64 {
	return inTask(probeMachine(), func(env *sim.Env) float64 {
		return timeLoop(100_000, func(int) { env.Sleep(time.Microsecond) })
	})
}

// probeTimer: a timer that fires and re-arms itself, and a timer that is
// armed and cancelled; the mean of the two.
func probeTimer() float64 {
	const n = 400_000
	eng := sim.NewEngine(1, sched.NewEEVDF())
	defer eng.Shutdown()
	fired := 0
	var rearm func()
	rearm = func() {
		if fired++; fired < n {
			eng.Schedule(time.Nanosecond, rearm)
		}
	}
	t0 := time.Now()
	eng.Schedule(time.Nanosecond, rearm)
	eng.Run(0)
	fire := float64(time.Since(t0).Nanoseconds()) / n
	cancel := timeLoop(n, func(int) { eng.Schedule(time.Microsecond, func() {}).Cancel() })
	return (fire + cancel) / 2
}

// probePost: PostAndNotify into the running thread's UPID, recognised and
// delivered to its handler in schedule.
func probePost() float64 {
	m := probeMachine()
	p, err := m.Launch("probe", aeokern.Partition{Blocks: 1 << 14, Writable: true}, aeodriver.Config{})
	if err != nil {
		return 0
	}
	return inTask(m, func(env *sim.Env) float64 {
		vec, err := m.Kern.AllocVector(func(*sim.IRQCtx, int) {})
		if err != nil {
			return 0
		}
		upid, _ := m.Kern.MapUPID(m.Eng.Core(0), vec, p.Gate)
		m.Kern.RegisterThreadUintr(env.Task(), vec, upid, func(*sim.IRQCtx, uint8) {})
		// The post comes from event context, as a device's MSI-X write
		// does, and lands while the thread is executing.
		post := func() { uintr.PostAndNotify(m.Eng, upid, 0) }
		return timeLoop(100_000, func(int) {
			env.Schedule(200*time.Nanosecond, post)
			env.Exec(time.Microsecond)
		})
	})
}

// probeCmd: one 4 KiB read through a bare queue pair — submit, device
// service, CQE post, poll — with no driver above it.
func probeCmd() float64 {
	eng := sim.NewEngine(1, sched.NewEEVDF())
	defer eng.Shutdown()
	dev := nvme.NewDevice(eng, nvme.Config{BlockSize: unit, NumBlocks: 1 << 14})
	qp, err := dev.CreateQueuePair(0)
	if err != nil {
		return 0
	}
	buf := make([]byte, unit)
	return timeLoop(200_000, func(i int) {
		if _, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: uint64(i & 1023), NLB: 1, Data: buf}); err == nil {
			eng.Run(0)
			qp.Poll(0)
		}
	})
}

// probeRead: Driver.ReadBlk at QD1, blk_qd1 without the benchmark around it.
func probeRead() float64 {
	m := probeMachine()
	p, err := m.Launch("probe", aeokern.Partition{Blocks: 1 << 14, Writable: true}, aeodriver.Config{})
	if err != nil {
		return 0
	}
	return inTask(m, func(env *sim.Env) float64 {
		if _, err := p.Driver.CreateQP(env); err != nil {
			return 0
		}
		buf := make([]byte, unit)
		return timeLoop(50_000, func(i int) { _ = p.Driver.ReadBlk(env, uint64(i&1023), 1, buf) })
	})
}

// probeFS runs body on a thread of a default AeoFS mount.
func probeFS(body func(env *sim.Env, fs vfs.FileSystem) float64) float64 {
	m := probeMachine()
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{})
	if err != nil {
		return 0
	}
	return inTask(m, func(env *sim.Env) float64 {
		if err := fi.FS.(vfs.PerThreadInit).InitThread(env); err != nil {
			return 0
		}
		return body(env, fi.FS)
	})
}

// probeHitRead: a 4 KiB ReadAt of a resident page.
func probeHitRead() float64 {
	return probeFS(func(env *sim.Env, fs vfs.FileSystem) float64 {
		fd, err := fs.Open(env, "/p", vfs.O_CREATE|vfs.O_RDWR)
		if err != nil {
			return 0
		}
		buf := make([]byte, unit)
		for off := 0; off < 16; off++ {
			if _, err := fs.WriteAt(env, fd, buf, uint64(off*unit)); err != nil {
				return 0
			}
		}
		return timeLoop(200_000, func(i int) { _, _ = fs.ReadAt(env, fd, buf, uint64(i&15)*unit) })
	})
}

// probeCreate: create and close an empty file.
func probeCreate() float64 {
	return probeFS(func(env *sim.Env, fs vfs.FileSystem) float64 {
		return timeLoop(2_000, func(i int) {
			if fd, err := fs.Open(env, fmt.Sprintf("/n%d", i), vfs.O_CREATE|vfs.O_RDWR); err == nil {
				_ = fs.Close(env, fd)
			}
		})
	})
}

// probeDeliver: one 64-byte frame from a sender task to a receiver task
// over a 1 µs link.
func probeDeliver() float64 {
	const n = 50_000
	eng := sim.NewEngine(2, sched.NewEEVDF())
	defer eng.Shutdown()
	fab := netsim.New(eng, 1)
	fab.Connect("a", "b", netsim.Config{Latency: time.Microsecond})
	a, b := fab.Endpoint("a"), fab.Endpoint("b")
	frame := make([]byte, 64)
	eng.Spawn("rx", eng.Core(1), func(env *sim.Env) {
		for i := 0; i < n; i++ {
			b.Recv(env)
		}
	})
	eng.Spawn("tx", eng.Core(0), func(env *sim.Env) {
		for i := 0; i < n; i++ {
			_ = a.Send(env, "b", frame)
			env.Sleep(2 * time.Microsecond)
		}
	})
	t0 := time.Now()
	eng.Run(0)
	return float64(time.Since(t0).Nanoseconds()) / n
}

// probeCodec: encode and decode a 4 KiB read reply with each of the three
// wire codecs; the mean. The cluster's codec is unexported, so its reply
// layout is spelled out over the wire.Writer/Reader it is built from.
func probeCodec() float64 {
	data := make([]byte, 4096)
	svc := timeLoop(100_000, func(i int) {
		r := aeosvc.Response{ID: uint64(i), Value: 4096, Data: data}
		_, _ = aeosvc.DecodeResponse(r.Encode())
	})
	ents := make([]aeomds.Dirent, 32)
	for i := range ents {
		ents[i] = aeomds.Dirent{Name: fmt.Sprintf("f%d", i), Ino: uint64(i + 2)}
	}
	mds := timeLoop(100_000, func(i int) {
		r := aeomds.Response{ID: uint64(i), Entries: ents}
		_, _ = aeomds.DecodeResponse(r.Encode())
	})
	cl := timeLoop(100_000, func(i int) {
		b := wire.NewWriter(24 + len(data)).U8(0xC2).U8(0).U32(uint32(i)).U16(1).
			U16(0).U64(uint64(i)).U32(7).U16(uint16(len(data))).Bytes(data).Frame()
		d := wire.NewReader(b)
		d.U8()
		d.U8()
		d.U32()
		d.U16()
		d.U16()
		d.U64()
		d.U32()
		d.Bytes(int(d.U16()))
		_ = d.Done()
	})
	return (svc + mds + cl) / 3
}

// probeRaft: one proposed 4 KiB entry replicated to two followers and
// committed, messages handed over directly.
func probeRaft() float64 {
	peers := []int{0, 1, 2}
	nodes := make([]*raft.Node, len(peers))
	for i := range nodes {
		nodes[i] = raft.New(raft.Config{ID: i, Peers: peers, Seed: 1}, raft.HardState{Vote: raft.None}, raft.NewLog())
	}
	pump := func() {
		for moved := true; moved; {
			moved = false
			for _, n := range nodes {
				for _, msg := range n.Messages() {
					nodes[msg.To].Step(msg)
					moved = true
				}
				n.CommittedEntries()
			}
		}
	}
	leader := -1
	for t := 0; t < 200 && leader < 0; t++ {
		for i, n := range nodes {
			n.Tick()
			if n.State() == raft.Leader {
				leader = i
			}
		}
		pump()
	}
	if leader < 0 {
		return 0
	}
	data := make([]byte, 4096)
	return timeLoop(50_000, func(i int) {
		nodes[leader].Propose(data)
		pump()
		if i%1024 == 0 {
			nodes[leader].MaybeCompact(64)
		}
	})
}

// probeNamespace: create, look up and unlink one file on the env-free
// namespace shard core.
func probeNamespace() float64 {
	ns := aeomds.NewNamespace(4, 4, aeomds.Layout{})
	if err := ns.Mkdir("/", "d"); err != nil {
		return 0
	}
	return timeLoop(100_000, func(i int) {
		name := fmt.Sprintf("f%d", i&1023)
		_, _ = ns.Open("/d", name, true, true, 0o644)
		_, _, _ = ns.Lookup("/d", name)
		_, _ = ns.Unlink("/d", name)
	}) / 3
}

// probeEmit: Tracer.Emit into a ring.
func probeEmit() float64 {
	tr := trace.New(0, 1<<16)
	return timeLoop(2_000_000, func(i int) {
		tr.Emit(time.Duration(i), trace.SQEPrep, 0, 1, uint32(i), uint64(i), 1)
	})
}

// probes maps each P metric to its probe.
var probes = map[string]func() float64{
	"sim.probe_switch_ns":     probeSwitch,
	"sim.probe_timer_ns":      probeTimer,
	"uintr.probe_post_ns":     probePost,
	"nvme.probe_cmd_ns":       probeCmd,
	"aeodriver.probe_read_ns": probeRead,
	"aeofs.probe_hit_read_ns": probeHitRead,
	"aeofs.probe_create_ns":   probeCreate,
	"netsim.probe_deliver_ns": probeDeliver,
	"wire.probe_codec_ns":     probeCodec,
	"raft.probe_step_ns":      probeRaft,
	"aeomds.probe_ns_op_ns":   probeNamespace,
	"trace.probe_emit_ns":     probeEmit,
}
