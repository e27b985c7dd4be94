// Package kernfs models the kernel file systems Aeolia is compared against:
// ext4-like and f2fs-like baselines. The functional substrate is a private
// AeoFS instance (real on-disk state, real caches), but every operation pays
// the kernel's "generic tax" (§2.2): syscall entry/exit, VFS-layer costs,
// and — decisively for multicore scalability — the coarse-grained kernel
// locks the paper blames for Figures 15 and 16: a global dentry-cache lock,
// a global JBD2-style journal lock (ext4) or an even coarser checkpoint
// lock (f2fs), and per-page journal/allocation work on writes.
//
// Global locks additionally charge a contention penalty per waiter
// (cacheline bouncing), which reproduces the throughput *collapse* kernel
// file systems exhibit at high core counts rather than a mere plateau.
package kernfs

import (
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/sim"
	"aeolia/internal/vfs"
)

// Flavor selects the modeled kernel file system.
type Flavor int

// Flavors.
const (
	Ext4 Flavor = iota
	F2FS
)

func (f Flavor) String() string {
	if f == F2FS {
		return "f2fs"
	}
	return "ext4"
}

// Profile holds a flavor's cost model.
type Profile struct {
	// Syscall is the per-call enter/exit + VFS dispatch cost.
	Syscall time.Duration
	// PathComponent is charged per path component during resolution,
	// under the global dcache lock.
	PathComponent time.Duration
	// DcacheHold is how long metadata ops hold the global dcache lock.
	DcacheHold time.Duration
	// JournalHold is how long metadata ops hold the global journal lock
	// (jbd2 handle start/stop; f2fs node/checkpoint lock).
	JournalHold time.Duration
	// PerPageWrite is per-4KB kernel work on the write path (page
	// locking, buffer heads, allocation) outside global locks.
	PerPageWrite time.Duration
	// PerPageJournal is per-4KB work under the global journal lock
	// (block allocation bookkeeping in the running transaction).
	PerPageJournal time.Duration
	// PerPageRead is per-4KB kernel work on the (cached) read path.
	PerPageRead time.Duration
	// FsyncHold is the extra time the journal lock is held during an
	// fsync's transaction commit, on top of the device writes.
	FsyncHold time.Duration
	// Contention is the extra CPU charged per queued waiter when a
	// global lock is acquired contended (cacheline bouncing).
	Contention time.Duration
	// ReadTouch is the per-read time under the global dcache/inode lock
	// (refcounts, atime) — the VFS read-scalability bottleneck.
	ReadTouch time.Duration
	// ThrottleBW models dirty throttling + writeback/journal
	// interference: when the journal lock is contended, the writer is
	// additionally held back at this byte rate while holding the lock.
	ThrottleBW float64
}

// Ext4Profile is the ext4-like cost model (tuned with blk-switch and KPTI
// disabled, per the paper's baseline setup).
func Ext4Profile() Profile {
	return Profile{
		Syscall:        1300 * time.Nanosecond,
		PathComponent:  250 * time.Nanosecond,
		DcacheHold:     350 * time.Nanosecond,
		JournalHold:    1200 * time.Nanosecond,
		PerPageWrite:   600 * time.Nanosecond,
		PerPageJournal: 500 * time.Nanosecond,
		PerPageRead:    450 * time.Nanosecond,
		FsyncHold:      30 * time.Microsecond,
		Contention:     400 * time.Nanosecond,
		ReadTouch:      220 * time.Nanosecond,
		ThrottleBW:     2.0e9,
	}
}

// F2FSProfile is the f2fs-like cost model: log-structured allocation is a
// bit cheaper per page, but node updates funnel through a much coarser
// global lock and the checkpoint path is heavier.
func F2FSProfile() Profile {
	return Profile{
		Syscall:        1300 * time.Nanosecond,
		PathComponent:  250 * time.Nanosecond,
		DcacheHold:     350 * time.Nanosecond,
		JournalHold:    4500 * time.Nanosecond,
		PerPageWrite:   550 * time.Nanosecond,
		PerPageJournal: 550 * time.Nanosecond,
		PerPageRead:    480 * time.Nanosecond,
		FsyncHold:      35 * time.Microsecond,
		Contention:     1100 * time.Nanosecond,
		ReadTouch:      260 * time.Nanosecond,
		ThrottleBW:     1.3e9,
	}
}

// contMutex is a global kernel lock with a contended-acquisition penalty.
type contMutex struct {
	mu      sim.Mutex
	penalty time.Duration
}

func (m *contMutex) lock(env *sim.Env) {
	contended := m.mu.Locked()
	waiters := int(m.mu.Contended)
	m.mu.Lock(env)
	if contended {
		// Cacheline bouncing: cost grows with the crowd.
		n := waiters % 8
		env.Exec(m.penalty + time.Duration(n)*m.penalty/4)
	}
}

func (m *contMutex) unlock(env *sim.Env) { m.mu.Unlock(env) }

// KernFS is an ext4/f2fs-like kernel file system over a private AeoFS
// substrate.
type KernFS struct {
	flavor Flavor
	prof   Profile
	inner  *aeofs.FS

	dcache  contMutex // global dentry-cache / inode-cache lock
	journal contMutex // global jbd2 / node-checkpoint lock
}

var _ vfs.FileSystem = (*KernFS)(nil)

// New wraps an AeoFS instance as a kernel file system of the given flavor.
// Its driver should use ModeKernelNative, the kernel's own completion path
// that the interrupt-driven block baselines share: the bottom half drains the
// CQ and wakes the waiter.
func New(flavor Flavor, inner *aeofs.FS) *KernFS {
	prof := Ext4Profile()
	if flavor == F2FS {
		prof = F2FSProfile()
	}
	k := &KernFS{flavor: flavor, prof: prof, inner: inner}
	k.dcache.penalty = prof.Contention
	k.journal.penalty = prof.Contention
	return k
}

// Name implements vfs.FileSystem.
func (k *KernFS) Name() string { return k.flavor.String() }

// InitThread implements vfs.PerThreadInit.
func (k *KernFS) InitThread(env *sim.Env) error {
	_, err := k.inner.Driver().CreateQP(env)
	return err
}

func (k *KernFS) syscall(env *sim.Env) {
	env.Exec(k.prof.Syscall)
}

// resolve charges path resolution under the global dcache lock.
func (k *KernFS) resolve(env *sim.Env, path string) {
	n := 1
	for i := 0; i < len(path); i++ {
		if path[i] == '/' {
			n++
		}
	}
	k.dcache.lock(env)
	env.Exec(time.Duration(n) * k.prof.PathComponent)
	k.dcache.unlock(env)
}

// metaOp wraps a metadata mutation with the dcache and journal locks.
func (k *KernFS) metaOp(env *sim.Env, path string, fn func() error) error {
	k.syscall(env)
	k.resolve(env, path)
	k.dcache.lock(env)
	env.Exec(k.prof.DcacheHold)
	k.dcache.unlock(env)
	k.journal.lock(env)
	env.Exec(k.prof.JournalHold)
	err := fn()
	k.journal.unlock(env)
	return err
}

func pages(n int) time.Duration { return time.Duration((n + aeofs.BlockSize - 1) / aeofs.BlockSize) }

// pageTax scales a per-page cost over an I/O: the first pages pay full
// price, the rest amortize (batched radix inserts, readahead, extent-based
// allocation), which is why the kernel's disadvantage shrinks at 2MB I/O
// (paper: 1.6x at 2MB vs up to 12.6x at 4KB).
func pageTax(per time.Duration, bytes int) time.Duration {
	n := int64(pages(bytes))
	if n <= 8 {
		return time.Duration(n * int64(per))
	}
	return time.Duration(8*int64(per) + (n-8)*int64(per)/5)
}

// Open implements vfs.FileSystem.
func (k *KernFS) Open(env *sim.Env, path string, flags int) (int, error) {
	k.syscall(env)
	k.resolve(env, path)
	if flags&vfs.O_CREATE != 0 {
		k.journal.lock(env)
		env.Exec(k.prof.JournalHold)
		k.journal.unlock(env)
	}
	return k.inner.Open(env, path, flags)
}

// Close implements vfs.FileSystem.
func (k *KernFS) Close(env *sim.Env, fd int) error {
	k.syscall(env)
	return k.inner.Close(env, fd)
}

// readTax charges the kernel read path: per-page work plus the global
// refcount/atime touch every read performs under the dcache lock.
func (k *KernFS) readTax(env *sim.Env, n int) {
	env.Exec(pageTax(k.prof.PerPageRead, n))
	k.dcache.lock(env)
	env.Exec(k.prof.ReadTouch)
	k.dcache.unlock(env)
}

// Read implements vfs.FileSystem.
func (k *KernFS) Read(env *sim.Env, fd int, buf []byte) (int, error) {
	k.syscall(env)
	k.readTax(env, len(buf))
	return k.inner.Read(env, fd, buf)
}

// ReadAt implements vfs.FileSystem.
func (k *KernFS) ReadAt(env *sim.Env, fd int, buf []byte, off uint64) (int, error) {
	k.syscall(env)
	k.readTax(env, len(buf))
	return k.inner.ReadAt(env, fd, buf, off)
}

// writeTax charges the kernel write path: per-page work plus per-page
// journal bookkeeping under the global journal lock.
func (k *KernFS) writeTax(env *sim.Env, n int) {
	env.Exec(pageTax(k.prof.PerPageWrite, n))
	contended := k.journal.mu.Locked()
	k.journal.lock(env)
	env.Exec(pageTax(k.prof.PerPageJournal, n))
	if contended && k.prof.ThrottleBW > 0 {
		// Dirty throttling: a contended journal means writeback is
		// behind; the writer is rate-limited while transaction space
		// is reclaimed.
		env.Exec(time.Duration(float64(n) / k.prof.ThrottleBW * 1e9))
	}
	k.journal.unlock(env)
}

// Write implements vfs.FileSystem.
func (k *KernFS) Write(env *sim.Env, fd int, buf []byte) (int, error) {
	k.syscall(env)
	k.writeTax(env, len(buf))
	return k.inner.Write(env, fd, buf)
}

// WriteAt implements vfs.FileSystem.
func (k *KernFS) WriteAt(env *sim.Env, fd int, buf []byte, off uint64) (int, error) {
	k.syscall(env)
	k.writeTax(env, len(buf))
	return k.inner.WriteAt(env, fd, buf, off)
}

// Seek implements vfs.FileSystem.
func (k *KernFS) Seek(env *sim.Env, fd int, off uint64) error {
	return k.inner.Seek(env, fd, off)
}

// Fsync implements vfs.FileSystem: the journal lock is held across the
// whole transaction commit — the jbd2 behavior that serializes concurrent
// fsyncs.
func (k *KernFS) Fsync(env *sim.Env, fd int) error {
	k.syscall(env)
	k.journal.lock(env)
	env.Exec(k.prof.FsyncHold)
	err := k.inner.Fsync(env, fd)
	k.journal.unlock(env)
	return err
}

// Stat implements vfs.FileSystem.
func (k *KernFS) Stat(env *sim.Env, path string) (vfs.FileInfo, error) {
	k.syscall(env)
	k.resolve(env, path)
	return vfs.InodeInfo(k.inner.Stat(env, path))
}

// Mkdir implements vfs.FileSystem.
func (k *KernFS) Mkdir(env *sim.Env, path string) error {
	return k.metaOp(env, path, func() error { return k.inner.Mkdir(env, path) })
}

// Rmdir implements vfs.FileSystem.
func (k *KernFS) Rmdir(env *sim.Env, path string) error {
	return k.metaOp(env, path, func() error { return k.inner.Rmdir(env, path) })
}

// Unlink implements vfs.FileSystem.
func (k *KernFS) Unlink(env *sim.Env, path string) error {
	return k.metaOp(env, path, func() error { return k.inner.Unlink(env, path) })
}

// Rename implements vfs.FileSystem.
func (k *KernFS) Rename(env *sim.Env, src, dst string) error {
	return k.metaOp(env, src, func() error { return k.inner.Rename(env, src, dst) })
}

// ReadDir implements vfs.FileSystem.
func (k *KernFS) ReadDir(env *sim.Env, path string) ([]vfs.Dirent, error) {
	k.syscall(env)
	k.resolve(env, path)
	ds, err := k.inner.ReadDir(env, path)
	if err != nil {
		return nil, err
	}
	out := make([]vfs.Dirent, len(ds))
	for i, d := range ds {
		out[i] = vfs.Dirent{Ino: d.Ino, Name: d.Name}
	}
	return out, nil
}

// Truncate implements vfs.FileSystem.
func (k *KernFS) Truncate(env *sim.Env, path string, size uint64) error {
	return k.metaOp(env, path, func() error { return k.inner.Truncate(env, path, size) })
}
