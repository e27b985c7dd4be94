package machine

import (
	"fmt"
	"time"

	"aeolia/internal/aeodriver"
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
	Kind  FSKind
	FS    vfs.FileSystem
	Proc  *Process
	Trust *aeofs.TrustLayer
	// UFS is the server handle (KindUFS only); call UFS.Stop() after the
	// workload so engine runs terminate.
	UFS *ufsserver.Server
	// AeoFS is the underlying substrate instance.
	AeoFS *aeofs.FS
}

// NewUFSClient returns a fresh per-thread uFS client library handle.
func (fi *FSInstance) NewUFSClient() vfs.FileSystem {
	return ufsserver.NewClient(fi.UFS)
}

// BuildFS launches a process, formats the partition, and assembles the
// requested file system over it. It drives the engine to complete setup.
func (m *Machine) BuildFS(kind FSKind, opt FSOptions) (*FSInstance, error) {
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

	var mode aeodriver.CompletionMode
	switch kind {
	case KindAeoFS:
		mode = aeodriver.ModeUserInterrupt
	case KindExt4, KindF2FS:
		mode = aeodriver.ModeKernelNative
	case KindUFS:
		mode = aeodriver.ModePoll
	default:
		return nil, fmt.Errorf("machine: unknown fs kind %q", kind)
	}
	p, err := m.Launch(string(kind), opt.Partition, aeodriver.Config{
		Mode:     mode,
		Coalesce: opt.Coalesce,
		QoS:      opt.QoS,
	})
	if err != nil {
		return nil, err
	}

	fi := &FSInstance{Kind: kind, Proc: p}
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

	switch kind {
	case KindAeoFS:
		fi.FS = &vfs.AeoFSAdapter{FS: fi.AeoFS}
	case KindExt4:
		fi.FS = kernfs.New(kernfs.Ext4, fi.AeoFS)
	case KindF2FS:
		fi.FS = kernfs.New(kernfs.F2FS, fi.AeoFS)
	case KindUFS:
		if len(opt.UFSWorkerCores) == 0 {
			return nil, fmt.Errorf("machine: uFS needs worker cores")
		}
		fi.UFS = ufsserver.New(m.Eng, opt.UFSWorkerCores, fi.AeoFS)
		// Let the workers initialize their queue pairs.
		m.Eng.Run(m.Eng.Now() + time.Millisecond)
		fi.FS = ufsserver.NewClient(fi.UFS)
	}
	return fi, nil
}
