package aeofs

import (
	"fmt"
	"strings"

	"aeolia/internal/aeodriver"
	"aeolia/internal/sim"
)

// Open flags.
const (
	O_RDONLY  = 0x0
	O_WRONLY  = 0x1
	O_RDWR    = 0x2
	O_ACCMODE = 0x3
	O_CREATE  = 0x40
	O_EXCL    = 0x80
	O_TRUNC   = 0x200
	O_APPEND  = 0x400
)

// FS is one process's AeoFS instance: the untrusted layer holding auxiliary
// state (page caches, dentry caches, inode cache, fd tables) over the
// shared trusted core state.
type FS struct {
	Trust *TrustLayer
	drv   *aeodriver.Driver

	// cache is the mount-wide page-cache accountant: residency budget,
	// CLOCK eviction, read-ahead tuning, background write-back.
	cache *cacheManager

	fdt     *fdTable
	ishards [16]uShard

	// Stats.
	Opens, Closes, ReadsOps, WritesOps, Fsyncs uint64
	BytesRead, BytesWritten                    uint64
	SharedPenalties                            uint64

	// copyAnnounced latches each traced path's one-time CopyBudget
	// announcement (indexed by the trace.Path* ids); chain ids come from
	// the engine tracer so instances sharing it never collide.
	copyAnnounced [8]bool
}

type uShard struct {
	lock sim.RWMutex
	m    map[uint64]*uInode
}

// uInode is the untrusted layer's cached per-inode auxiliary state.
type uInode struct {
	lock sim.RWMutex

	inoNum uint64
	ino    Inode
	valid  bool

	blocks   []uint64
	blocksOK bool

	pc *pageCache // regular files
	dc *dentCache // directories

	// wbErr is the first background write-back failure since the last
	// fsync; the next fsync returns it and clears it.
	wbErr error

	// closeMu serializes last-close flush+revoke sequences, so one
	// closer's in-flight flush cannot be invalidated by another
	// closer's revoke.
	closeMu sim.Mutex

	openRefs  int
	writeRefs int
	granted   bool
	grantedW  bool
	// openGen counts Opens; a closer only revokes if no new open (and
	// hence no possibly-unflushed writer) appeared since it decided it
	// was the last reference.
	openGen uint64
}

// OpenFile is an open file description.
type OpenFile struct {
	fs    *FS
	ui    *uInode
	flags int
	pos   uint64
}

// NewFS creates a process's FS instance over a mounted trust layer with
// the zero CacheConfig (unbounded, read-ahead, flush at fsync).
func NewFS(trust *TrustLayer, drv *aeodriver.Driver, cores int) *FS {
	return NewFSWithCache(trust, drv, cores, CacheConfig{})
}

// NewFSWithCache creates an FS instance with an explicit page-cache
// configuration (budget, read-ahead, background write-back).
func NewFSWithCache(trust *TrustLayer, drv *aeodriver.Driver, cores int, cfg CacheConfig) *FS {
	fs := &FS{Trust: trust, drv: drv, fdt: newFDTable(cores)}
	for i := range fs.ishards {
		fs.ishards[i].m = make(map[uint64]*uInode)
	}
	fs.cache = newCacheManager(fs, cfg)
	return fs
}

// CacheStats snapshots the mount's page-cache counters.
func (fs *FS) CacheStats() CacheStats { return fs.cache.snapshot() }

// DropCaches writes back every open file's dirty pages and then evicts all
// resident pages — the benchmark boundary between a setup phase and a
// measured phase (the simulator's `echo 3 > /proc/sys/vm/drop_caches`).
// Sequential-stream read-ahead state resets with the pages.
func (fs *FS) DropCaches(env *sim.Env) error {
	files := append([]*pageCache(nil), fs.cache.files...)
	for _, pc := range files {
		if err := fs.flushFile(env, pc.owner); err != nil {
			return err
		}
		pc.dropFrom(env, 0)
		pc.rl.Lock(env, 0, ^uint64(0), true)
		pc.clockPos, pc.raNext, pc.raIssued, pc.raRun, pc.raWindow = 0, 0, 0, 0, 0
		pc.rl.Unlock(env, 0, ^uint64(0), true)
	}
	return nil
}

// Driver returns the process's AeoDriver.
func (fs *FS) Driver() *aeodriver.Driver { return fs.drv }

// ui returns (creating if needed) the auxiliary state for ino.
func (fs *FS) uiFor(env *sim.Env, ino uint64) *uInode {
	sh := &fs.ishards[ino%uint64(len(fs.ishards))]
	sh.lock.RLock(env)
	u := sh.m[ino]
	sh.lock.RUnlock(env)
	if u != nil {
		return u
	}
	sh.lock.Lock(env)
	if u = sh.m[ino]; u == nil {
		u = &uInode{inoNum: ino}
		sh.m[ino] = u
	}
	sh.lock.Unlock(env)
	return u
}

// dropUI evicts auxiliary state for ino, releasing any page-cache
// residency it held.
func (fs *FS) dropUI(env *sim.Env, ino uint64) {
	sh := &fs.ishards[ino%uint64(len(fs.ishards))]
	sh.lock.Lock(env)
	u := sh.m[ino]
	delete(sh.m, ino)
	sh.lock.Unlock(env)
	if u != nil && u.pc != nil {
		fs.cache.unregister(env, u.pc)
	}
}

// ensureInode fills u.ino from the trusted layer on first use. Caller must
// not hold u.lock.
func (fs *FS) ensureInode(env *sim.Env, u *uInode) error {
	u.lock.RLock(env)
	ok := u.valid
	u.lock.RUnlock(env)
	if ok {
		env.Exec(costInodeCacheHit)
		return nil
	}
	ino, err := fs.Trust.QueryInode(env, fs.drv, u.inoNum)
	if err != nil {
		return err
	}
	u.lock.Lock(env)
	u.ino = ino
	u.valid = true
	u.lock.Unlock(env)
	return nil
}

// ensureBlocks fills u.blocks. Caller must not hold u.lock.
func (fs *FS) ensureBlocks(env *sim.Env, u *uInode) error {
	u.lock.RLock(env)
	ok := u.blocksOK
	u.lock.RUnlock(env)
	if ok {
		return nil
	}
	blocks, err := fs.Trust.QueryFileBlocks(env, fs.drv, u.inoNum)
	if err != nil {
		return err
	}
	u.lock.Lock(env)
	if !u.blocksOK {
		u.blocks = blocks
		u.blocksOK = true
	}
	u.lock.Unlock(env)
	return nil
}

// staleInode marks an inode's cached attributes stale so the next access
// refetches them from the trusted layer (after metadata mutations that
// change nlink/size/mtime of a directory).
func (fs *FS) staleInode(env *sim.Env, ino uint64) {
	u := fs.uiFor(env, ino)
	u.lock.Lock(env)
	u.valid = false
	u.lock.Unlock(env)
}

// invalidate drops an inode's cached auxiliary state (the sharing-mode
// rebuild of §9.4).
func (fs *FS) invalidate(env *sim.Env, u *uInode) {
	u.lock.Lock(env)
	u.valid = false
	u.blocksOK = false
	u.blocks = nil
	if u.pc != nil {
		u.pc.dropFrom(env, 0)
	}
	if u.dc != nil {
		u.dc = newDentCache()
	}
	u.lock.Unlock(env)
}

// splitPath appends the cleaned components of an absolute or relative path
// (both resolve from the root) to comps[:0]. A caller passes a small array
// of its own, so resolving a path allocates nothing.
func splitPath(path string, comps []string) ([]string, error) {
	comps = comps[:0]
	for len(path) > 0 {
		c := path
		if i := strings.IndexByte(path, '/'); i >= 0 {
			c, path = path[:i], path[i+1:]
		} else {
			path = ""
		}
		switch c {
		case "", ".":
		case "..":
			if len(comps) == 0 {
				return nil, fmt.Errorf("%w: path escapes root: %q", ErrInvalid, path)
			}
			comps = comps[:len(comps)-1]
		default:
			comps = append(comps, c)
		}
	}
	return comps, nil
}

// lookupChild resolves one component in dir, consulting the directory's
// dentry cache first.
func (fs *FS) lookupChild(env *sim.Env, dirIno uint64, name string) (uint64, error) {
	du := fs.uiFor(env, dirIno)
	du.lock.Lock(env)
	if du.dc == nil {
		du.dc = newDentCache()
	}
	dc := du.dc
	du.lock.Unlock(env)
	if ino, ok := dc.Lookup(env, name); ok {
		return ino, nil
	}
	ino, err := fs.Trust.LookupDir(env, fs.drv, dirIno, name)
	if err != nil {
		return 0, err
	}
	dc.Insert(env, name, ino)
	return ino, nil
}

// dcacheOf returns the dentry cache of a directory.
func (fs *FS) dcacheOf(env *sim.Env, dirIno uint64) *dentCache {
	du := fs.uiFor(env, dirIno)
	du.lock.Lock(env)
	if du.dc == nil {
		du.dc = newDentCache()
	}
	dc := du.dc
	du.lock.Unlock(env)
	return dc
}

// namei resolves a path to an inode number.
func (fs *FS) namei(env *sim.Env, path string) (uint64, error) {
	var buf [8]string
	comps, err := splitPath(path, buf[:])
	if err != nil {
		return 0, err
	}
	ino := uint64(RootIno)
	for _, c := range comps {
		ino, err = fs.lookupChild(env, ino, c)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
	}
	return ino, nil
}

// nameiParent resolves a path to its parent directory and final component.
func (fs *FS) nameiParent(env *sim.Env, path string) (uint64, string, error) {
	var buf [8]string
	comps, err := splitPath(path, buf[:])
	if err != nil {
		return 0, "", err
	}
	if len(comps) == 0 {
		return 0, "", fmt.Errorf("%w: path has no final component: %q", ErrInvalid, path)
	}
	ino := uint64(RootIno)
	for _, c := range comps[:len(comps)-1] {
		ino, err = fs.lookupChild(env, ino, c)
		if err != nil {
			return 0, "", fmt.Errorf("%s: %w", path, err)
		}
	}
	return ino, comps[len(comps)-1], nil
}

// Open opens (optionally creating) a file and returns an fd.
func (fs *FS) Open(env *sim.Env, path string, flags int) (int, error) {
	parent, name, err := fs.nameiParent(env, path)
	if err != nil {
		return -1, err
	}
	ino, err := fs.lookupChild(env, parent, name)
	created := false
	switch {
	case err == nil:
		if flags&(O_CREATE|O_EXCL) == O_CREATE|O_EXCL {
			return -1, ErrExist
		}
	case flags&O_CREATE != 0:
		inode, cerr := fs.Trust.CreateInDir(env, fs.drv, parent, name, TypeRegular)
		if cerr != nil {
			return -1, cerr
		}
		ino = inode.Ino
		fs.dcacheOf(env, parent).Insert(env, name, ino)
		fs.staleInode(env, parent)
		created = true
	default:
		return -1, err
	}

	u := fs.uiFor(env, ino)
	if err := fs.ensureInode(env, u); err != nil {
		return -1, err
	}
	u.lock.RLock(env)
	typ := u.ino.Type
	u.lock.RUnlock(env)
	if typ == TypeDir {
		if flags&O_ACCMODE != O_RDONLY {
			return -1, ErrIsDir
		}
		return -1, ErrIsDir // directories are read via ReadDir
	}

	wantWrite := flags&O_ACCMODE != O_RDONLY
	// Grant direct block access for the data path. The grant and the
	// open-reference increment form one critical section so a concurrent
	// last-close cannot revoke between them.
	u.lock.Lock(env)
	if !u.granted || (wantWrite && !u.grantedW) {
		if err := fs.Trust.GrantFile(env, fs.drv, ino, wantWrite); err != nil {
			u.lock.Unlock(env)
			return -1, err
		}
		u.granted = true
		if wantWrite {
			u.grantedW = true
		}
	}
	u.openRefs++
	u.openGen++
	if wantWrite {
		u.writeRefs++
	}
	if u.pc == nil {
		u.pc = newPageCache(fs.cache, u)
		fs.cache.register(u.pc)
	}
	u.lock.Unlock(env)
	fs.Trust.RegisterOpen(env, fs.drv, ino)

	if flags&O_TRUNC != 0 && !created && wantWrite {
		if err := fs.truncateLocked(env, u, 0); err != nil {
			return -1, err
		}
	}

	f := &OpenFile{fs: fs, ui: u, flags: flags}
	if flags&O_APPEND != 0 {
		u.lock.RLock(env)
		f.pos = u.ino.Size
		u.lock.RUnlock(env)
	}
	fs.Opens++
	return fs.fdt.Alloc(env, f), nil
}

// Close closes an fd, flushing dirty pages on the inode's last close and
// revoking direct block access.
func (fs *FS) Close(env *sim.Env, fd int) error {
	f, err := fs.fdt.Release(env, fd)
	if err != nil {
		return err
	}
	u := f.ui
	u.lock.Lock(env)
	u.openRefs--
	if f.flags&O_ACCMODE != O_RDONLY {
		u.writeRefs--
	}
	last := u.openRefs == 0
	gen := u.openGen
	u.lock.Unlock(env)
	if last {
		// Flush outside u.lock (the grant is still in force), then
		// revoke only if no concurrent open raced in (openGen) — a
		// newer opener's closer owns the flush+revoke duty then.
		// closeMu keeps a concurrent closer's revoke from landing
		// mid-flush.
		u.closeMu.Lock(env)
		if err := fs.flushFile(env, u); err != nil {
			u.closeMu.Unlock(env)
			return err
		}
		u.lock.Lock(env)
		if u.openRefs == 0 && u.granted && u.openGen == gen {
			if err := fs.Trust.RevokeFile(env, fs.drv, u.inoNum); err != nil {
				u.lock.Unlock(env)
				u.closeMu.Unlock(env)
				return err
			}
			u.granted, u.grantedW = false, false
		}
		u.lock.Unlock(env)
		u.closeMu.Unlock(env)
	}
	freed, err := fs.Trust.UnregisterOpen(env, fs.drv, u.inoNum)
	if err != nil {
		return err
	}
	if freed {
		// This close completed a deferred unlink/rename-over: the ino went
		// back to the allocator, so its cached auxiliary state must go too
		// or a reused ino would inherit stale grants and pages.
		fs.dropUI(env, u.inoNum)
	}
	fs.Closes++
	return nil
}

// Stat returns a file's inode.
func (fs *FS) Stat(env *sim.Env, path string) (Inode, error) {
	ino, err := fs.namei(env, path)
	if err != nil {
		return Inode{}, err
	}
	u := fs.uiFor(env, ino)
	if err := fs.ensureInode(env, u); err != nil {
		return Inode{}, err
	}
	u.lock.RLock(env)
	out := u.ino
	u.lock.RUnlock(env)
	return out, nil
}

// FStat returns an open file's inode.
func (fs *FS) FStat(env *sim.Env, fd int) (Inode, error) {
	f, err := fs.fdt.Get(env, fd)
	if err != nil {
		return Inode{}, err
	}
	f.ui.lock.RLock(env)
	out := f.ui.ino
	f.ui.lock.RUnlock(env)
	return out, nil
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(env *sim.Env, path string) error {
	parent, name, err := fs.nameiParent(env, path)
	if err != nil {
		return err
	}
	inode, err := fs.Trust.CreateInDir(env, fs.drv, parent, name, TypeDir)
	if err != nil {
		return err
	}
	fs.dcacheOf(env, parent).Insert(env, name, inode.Ino)
	fs.staleInode(env, parent)
	fs.afterSharedMeta(env, parent)
	return nil
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(env *sim.Env, path string) error {
	parent, name, err := fs.nameiParent(env, path)
	if err != nil {
		return err
	}
	ino, err := fs.lookupChild(env, parent, name)
	if err != nil {
		return err
	}
	if err := fs.Trust.RemoveFromDir(env, fs.drv, parent, name, true); err != nil {
		return err
	}
	fs.dcacheOf(env, parent).Remove(env, name)
	fs.dropUI(env, ino)
	fs.staleInode(env, parent)
	fs.afterSharedMeta(env, parent)
	return nil
}

// Unlink removes a file.
func (fs *FS) Unlink(env *sim.Env, path string) error {
	parent, name, err := fs.nameiParent(env, path)
	if err != nil {
		return err
	}
	ino, err := fs.lookupChild(env, parent, name)
	if err != nil {
		return err
	}
	if err := fs.Trust.RemoveFromDir(env, fs.drv, parent, name, false); err != nil {
		return err
	}
	fs.dcacheOf(env, parent).Remove(env, name)
	u := fs.uiFor(env, ino)
	u.lock.RLock(env)
	open := u.openRefs > 0
	u.lock.RUnlock(env)
	if !open {
		fs.dropUI(env, ino)
	}
	fs.staleInode(env, parent)
	fs.afterSharedMeta(env, parent)
	return nil
}

// Rename moves src to dst.
func (fs *FS) Rename(env *sim.Env, src, dst string) error {
	sp, sn, err := fs.nameiParent(env, src)
	if err != nil {
		return err
	}
	dp, dn, err := fs.nameiParent(env, dst)
	if err != nil {
		return err
	}
	ino, err := fs.lookupChild(env, sp, sn)
	if err != nil {
		return err
	}
	replaced, err := fs.Trust.Rename(env, fs.drv, sp, sn, dp, dn)
	if err != nil {
		return err
	}
	fs.dcacheOf(env, sp).Remove(env, sn)
	fs.dcacheOf(env, dp).Insert(env, dn, ino)
	if replaced != 0 && replaced != ino {
		// The displaced destination inode was destroyed (or orphaned until
		// its last close): drop its cached auxiliary state — granted-access
		// flags, dentry cache, page-cache residency — so a reused inode
		// number cannot inherit it. Mirrors Unlink.
		u := fs.uiFor(env, replaced)
		u.lock.RLock(env)
		open := u.openRefs > 0
		u.lock.RUnlock(env)
		if !open {
			fs.dropUI(env, replaced)
		}
	}
	fs.staleInode(env, sp)
	fs.staleInode(env, dp)
	fs.afterSharedMeta(env, sp)
	if dp != sp {
		fs.afterSharedMeta(env, dp)
	}
	return nil
}

// ReadDir lists a directory, refreshing its dentry cache.
func (fs *FS) ReadDir(env *sim.Env, path string) ([]Dirent, error) {
	ino, err := fs.namei(env, path)
	if err != nil {
		return nil, err
	}
	dents, err := fs.Trust.ReadDirAll(env, fs.drv, ino)
	if err != nil {
		return nil, err
	}
	dc := fs.dcacheOf(env, ino)
	for _, d := range dents {
		dc.Insert(env, d.Name, d.Ino)
	}
	return dents, nil
}

// Chmod updates a file's mode through the trusted layer.
func (fs *FS) Chmod(env *sim.Env, path string, mode uint32) error {
	ino, err := fs.namei(env, path)
	if err != nil {
		return err
	}
	if err := fs.Trust.UpdateInode(env, fs.drv, ino, "mode", uint64(mode)); err != nil {
		return err
	}
	u := fs.uiFor(env, ino)
	u.lock.Lock(env)
	u.valid = false
	u.lock.Unlock(env)
	return nil
}

// afterSharedMeta applies the §9.4 sharing penalty after a metadata
// mutation in a directory another process also mutates: an immediate fsync
// plus auxiliary-state rebuild for the directory.
func (fs *FS) afterSharedMeta(env *sim.Env, dirIno uint64) {
	if !fs.Trust.IsSharedIno(env, dirIno) {
		return
	}
	fs.SharedPenalties++
	fs.invalidate(env, fs.uiFor(env, dirIno))
	fs.Trust.Sync(env, fs.drv)
}
