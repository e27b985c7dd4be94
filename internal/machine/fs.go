package machine

import (
	"fmt"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/aeokern"
	"aeolia/internal/kernfs"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/ufsserver"
	"aeolia/internal/vfs"
)

// FSKind names an evaluated file system.
type FSKind string

// The evaluated file systems.
const (
	KindAeoFS FSKind = "aeofs"
	KindExt4  FSKind = "ext4"
	KindF2FS  FSKind = "f2fs"
	KindUFS   FSKind = "ufs"
)

// AllFSKinds lists the evaluated systems in the paper's presentation order.
var AllFSKinds = []FSKind{KindExt4, KindF2FS, KindAeoFS, KindUFS}

// FSOptions parameterize BuildFS.
type FSOptions struct {
	// Partition to format (defaults to the whole device).
	Partition aeokern.Partition
	// Cores sizes per-core structures (fd tables); defaults to the
	// machine's core count.
	Cores int
	// UFSWorkerCores are the dedicated cores for uFS workers (required
	// for KindUFS).
	UFSWorkerCores []*sim.Core
	// Journals/JournalBlocks size the AeoFS journal area.
	Journals      uint64
	JournalBlocks uint64
	// Coalesce configures CQ interrupt aggregation on the driver's queue
	// pairs (zero value: none).
	Coalesce nvme.Coalescing
	// Cache configures the AeoFS page cache (budget, read-ahead,
	// background write-back); the zero value is unbounded, with
	// sequential read-ahead and write-back at fsync/close.
	Cache aeofs.CacheConfig
	// QoS enables priority-class delivery in the driver (threads start at
	// uintr.ClassNormal and retag per request via SetIOClass); see
	// aeodriver.Config.QoS.
	QoS bool
}

// FSInstance is a built file system ready for workloads.
type FSInstance struct {
	FS    vfs.FileSystem
	Proc  *Process
	Trust *aeofs.TrustLayer
	// UFS is the server handle (KindUFS only); Stop stops it.
	UFS *ufsserver.Server
	// AeoFS is the underlying substrate instance.
	AeoFS *aeofs.FS
}

// ForThread returns the handle a workload thread uses: the mounted front
// end, or for uFS a fresh client library instance per call.
func (fi *FSInstance) ForThread(int) vfs.FileSystem {
	if fi.UFS != nil {
		return ufsserver.NewClient(fi.UFS)
	}
	return fi.FS
}

// Stop stops the uFS workers, if any, so later engine runs terminate.
func (fi *FSInstance) Stop() {
	if fi.UFS != nil {
		fi.UFS.Stop()
	}
}

// BuildFS launches the process of the stack table's row kind, formats the
// partition, and builds the row's file system over it. It drives the
// engine to complete setup.
func (m *Machine) BuildFS(kind FSKind, opt FSOptions) (*FSInstance, error) {
	s, ok := stacks[string(kind)]
	if !ok || s.mount == nil {
		return nil, fmt.Errorf("machine: unknown fs kind %q", kind)
	}
	if opt.Partition.Blocks == 0 {
		opt.Partition = aeokern.Partition{Start: 0, Blocks: m.Dev.NumBlocks(), Writable: true}
	}
	if opt.Cores == 0 {
		opt.Cores = len(m.Eng.Cores())
	}
	if opt.Journals == 0 {
		opt.Journals = 64
	}
	// opt.JournalBlocks == 0 lets Mkfs size the journal area to the
	// partition.

	cfg := s.driver
	cfg.Coalesce, cfg.QoS = opt.Coalesce, opt.QoS
	p, err := m.launch(string(kind), opt.Partition, cfg, s.toll)
	if err != nil {
		return nil, err
	}

	fi := &FSInstance{Proc: p}
	var serr error
	m.Eng.Spawn("mkfs."+string(kind), m.Eng.Core(0), func(env *sim.Env) {
		if _, e := p.Driver.CreateQP(env); e != nil {
			serr = e
			return
		}
		trust, e := aeofs.MkfsAndMount(env, p.Driver, opt.Partition.Start, opt.Partition.Blocks,
			aeofs.MkfsOptions{NumJournals: opt.Journals, JournalBlocks: opt.JournalBlocks})
		if e != nil {
			serr = e
			return
		}
		fi.Trust = trust
		fi.AeoFS = aeofs.NewFSWithCache(trust, p.Driver, opt.Cores, opt.Cache)
	})
	m.Eng.Run(0)
	if serr != nil {
		return nil, serr
	}
	if err := s.mount(m, fi, opt); err != nil {
		return nil, err
	}
	return fi, nil
}

// adapter mounts AeoFS itself.
func adapter(_ *Machine, fi *FSInstance, _ FSOptions) error {
	fi.FS = &vfs.AeoFSAdapter{FS: fi.AeoFS}
	return nil
}

// kernel mounts a kernel file system of the given flavor over the substrate.
func kernel(f kernfs.Flavor) func(*Machine, *FSInstance, FSOptions) error {
	return func(_ *Machine, fi *FSInstance, _ FSOptions) error {
		fi.FS = kernfs.New(f, fi.AeoFS)
		return nil
	}
}

// ufs starts the uFS server on the worker cores; each thread talks to it
// through its own client (ForThread).
func ufs(m *Machine, fi *FSInstance, opt FSOptions) error {
	if len(opt.UFSWorkerCores) == 0 {
		return fmt.Errorf("machine: uFS needs worker cores")
	}
	fi.UFS = ufsserver.New(m.Eng, opt.UFSWorkerCores, fi.AeoFS)
	// Let the workers initialize their queue pairs.
	m.Eng.Run(m.Eng.Now() + time.Millisecond)
	fi.FS = ufsserver.NewClient(fi.UFS)
	return nil
}
