// Package vfs defines the file-system interface every evaluated system
// (AeoFS, the ext4/f2fs-like kernel baselines, the uFS-like semi-microkernel)
// implements, so workloads (fio-style, FXMARK, Filebench, the LevelDB-like
// KV store) drive them uniformly.
package vfs

import (
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/sim"
)

// Open flags, shared across implementations (same values as aeofs).
const (
	O_RDONLY = aeofs.O_RDONLY
	O_WRONLY = aeofs.O_WRONLY
	O_RDWR   = aeofs.O_RDWR
	O_CREATE = aeofs.O_CREATE
	O_EXCL   = aeofs.O_EXCL
	O_TRUNC  = aeofs.O_TRUNC
	O_APPEND = aeofs.O_APPEND
)

// FileInfo is the stat result.
type FileInfo struct {
	Ino   uint64
	Dir   bool
	Size  uint64
	Nlink uint32
	MTime time.Duration
}

// Dirent is one directory entry.
type Dirent struct {
	Ino  uint64
	Name string
}

// InodeInfo converts an AeoFS stat result into a FileInfo, passing err
// through.
func InodeInfo(in aeofs.Inode, err error) (FileInfo, error) {
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{
		Ino:   in.Ino,
		Dir:   in.Type == aeofs.TypeDir,
		Size:  in.Size,
		Nlink: in.Nlink,
		MTime: time.Duration(in.MTimeNS),
	}, nil
}

// FileSystem is the POSIX-like surface the benchmarks exercise.
type FileSystem interface {
	Name() string

	Open(env *sim.Env, path string, flags int) (int, error)
	Close(env *sim.Env, fd int) error
	Read(env *sim.Env, fd int, buf []byte) (int, error)
	ReadAt(env *sim.Env, fd int, buf []byte, off uint64) (int, error)
	Write(env *sim.Env, fd int, buf []byte) (int, error)
	WriteAt(env *sim.Env, fd int, buf []byte, off uint64) (int, error)
	Seek(env *sim.Env, fd int, off uint64) error
	Fsync(env *sim.Env, fd int) error

	Stat(env *sim.Env, path string) (FileInfo, error)
	Mkdir(env *sim.Env, path string) error
	Rmdir(env *sim.Env, path string) error
	Unlink(env *sim.Env, path string) error
	Rename(env *sim.Env, src, dst string) error
	ReadDir(env *sim.Env, path string) ([]Dirent, error)
	Truncate(env *sim.Env, path string, size uint64) error
}

// PerThreadInit is implemented by file systems that need per-task setup
// (e.g. creating a driver queue pair) before a task issues operations.
type PerThreadInit interface {
	InitThread(env *sim.Env) error
}

// AeoFSAdapter adapts *aeofs.FS to the vfs interface.
type AeoFSAdapter struct {
	FS *aeofs.FS
}

var _ FileSystem = (*AeoFSAdapter)(nil)

// Name implements FileSystem.
func (a *AeoFSAdapter) Name() string { return "aeofs" }

// InitThread creates the calling task's driver queue pair.
func (a *AeoFSAdapter) InitThread(env *sim.Env) error {
	_, err := a.FS.Driver().CreateQP(env)
	return err
}

// Open implements FileSystem.
func (a *AeoFSAdapter) Open(env *sim.Env, path string, flags int) (int, error) {
	return a.FS.Open(env, path, flags)
}

// Close implements FileSystem.
func (a *AeoFSAdapter) Close(env *sim.Env, fd int) error { return a.FS.Close(env, fd) }

// Read implements FileSystem.
func (a *AeoFSAdapter) Read(env *sim.Env, fd int, buf []byte) (int, error) {
	return a.FS.Read(env, fd, buf)
}

// ReadAt implements FileSystem.
func (a *AeoFSAdapter) ReadAt(env *sim.Env, fd int, buf []byte, off uint64) (int, error) {
	return a.FS.ReadAt(env, fd, buf, off)
}

// Write implements FileSystem.
func (a *AeoFSAdapter) Write(env *sim.Env, fd int, buf []byte) (int, error) {
	return a.FS.Write(env, fd, buf)
}

// WriteAt implements FileSystem.
func (a *AeoFSAdapter) WriteAt(env *sim.Env, fd int, buf []byte, off uint64) (int, error) {
	return a.FS.WriteAt(env, fd, buf, off)
}

// Seek implements FileSystem.
func (a *AeoFSAdapter) Seek(env *sim.Env, fd int, off uint64) error {
	return a.FS.Seek(env, fd, off)
}

// Fsync implements FileSystem.
func (a *AeoFSAdapter) Fsync(env *sim.Env, fd int) error { return a.FS.Fsync(env, fd) }

// Stat implements FileSystem.
func (a *AeoFSAdapter) Stat(env *sim.Env, path string) (FileInfo, error) {
	return InodeInfo(a.FS.Stat(env, path))
}

// Mkdir implements FileSystem.
func (a *AeoFSAdapter) Mkdir(env *sim.Env, path string) error { return a.FS.Mkdir(env, path) }

// Rmdir implements FileSystem.
func (a *AeoFSAdapter) Rmdir(env *sim.Env, path string) error { return a.FS.Rmdir(env, path) }

// Unlink implements FileSystem.
func (a *AeoFSAdapter) Unlink(env *sim.Env, path string) error { return a.FS.Unlink(env, path) }

// Rename implements FileSystem.
func (a *AeoFSAdapter) Rename(env *sim.Env, src, dst string) error {
	return a.FS.Rename(env, src, dst)
}

// ReadDir implements FileSystem.
func (a *AeoFSAdapter) ReadDir(env *sim.Env, path string) ([]Dirent, error) {
	ds, err := a.FS.ReadDir(env, path)
	if err != nil {
		return nil, err
	}
	out := make([]Dirent, len(ds))
	for i, d := range ds {
		out[i] = Dirent{Ino: d.Ino, Name: d.Name}
	}
	return out, nil
}

// Truncate implements FileSystem.
func (a *AeoFSAdapter) Truncate(env *sim.Env, path string, size uint64) error {
	return a.FS.Truncate(env, path, size)
}
