// Package ufsserver models uFS (Liu et al., SOSP'21), the polling-based
// semi-microkernel file system Aeolia is compared against (§2.2): the file
// system runs as a standalone server with a small number of dedicated
// worker threads that busy-poll request queues over SPDK; applications talk
// to it through IPC costing hundreds of nanoseconds per crossing; all
// operations on a file are assigned to a single worker, and all metadata
// operations funnel through a global master thread — the design that avoids
// locking inside asynchronous event handlers at the price of scalability.
package ufsserver

import (
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/fifo"
	"aeolia/internal/sim"
	"aeolia/internal/timing"
	"aeolia/internal/vfs"
)

// request is one IPC'd file system request.
type request struct {
	fn   func(env *sim.Env)
	done *sim.Completion
}

// worker is one dedicated uFS server thread: it spins on its request queue
// (and would poll SPDK completion queues between requests).
type worker struct {
	id     int
	queue  fifo.Queue[*request]
	signal *sim.Completion
	task   *sim.Task

	// Ops counts serviced requests.
	Ops uint64
	// BusyTime accumulates time spent servicing (vs. spinning).
	BusyTime time.Duration
}

// Server is a uFS instance: dedicated workers over a private AeoFS
// substrate (whose driver should use ModePoll — SPDK).
type Server struct {
	inner   *aeofs.FS
	workers []*worker

	// perWorkerCost is the server-side request handling overhead
	// (dispatch, completion posting) per op.
	perWorkerCost time.Duration

	stopped bool
}

// New creates a uFS server with one worker per given core and starts the
// worker tasks. Worker 0 is the metadata master.
func New(eng *sim.Engine, cores []*sim.Core, inner *aeofs.FS) *Server {
	s := &Server{inner: inner, perWorkerCost: 300 * time.Nanosecond}
	for i, c := range cores {
		w := &worker{id: i, signal: sim.NewCompletion()}
		s.workers = append(s.workers, w)
		w.task = eng.Spawn("ufs-worker", c, func(env *sim.Env) {
			// Workers create their own SPDK queue pair and then
			// poll forever.
			if _, err := inner.Driver().CreateQP(env); err != nil {
				panic("ufs worker init: " + err.Error())
			}
			s.workerLoop(env, w)
		})
	}
	return s
}

// Stop terminates the worker tasks (after the workload drains) so engine
// runs can complete.
func (s *Server) Stop() {
	s.stopped = true
	for _, w := range s.workers {
		w.signal.Fire()
	}
}

// workerLoop busy-polls the queue: uFS workers never sleep (until Stop).
func (s *Server) workerLoop(env *sim.Env, w *worker) {
	for {
		if s.stopped {
			return
		}
		req, ok := w.queue.Pop()
		if !ok {
			w.signal = sim.NewCompletion()
			env.SpinWait(w.signal)
			continue
		}
		start := env.Now()
		env.Exec(s.perWorkerCost)
		req.fn(env)
		w.Ops++
		w.BusyTime += env.Now() - start
		req.done.Fire()
	}
}

// submit IPCs a request to worker w and waits for the reply. The client
// pays the IPC crossing cost each way and polls for the response, as the
// uFS client library does.
func (s *Server) submit(env *sim.Env, wi int, fn func(env *sim.Env)) {
	w := s.workers[wi%len(s.workers)]
	env.Exec(timing.IPC) // marshal + enqueue + doorbell
	req := &request{fn: fn, done: sim.NewCompletion()}
	w.queue.Push(req)
	w.signal.Fire()
	env.SpinWait(req.done)
	env.Exec(timing.IPC / 2) // read the response
}

// Workers returns the worker states (for reporting).
func (s *Server) Workers() []*worker { return s.workers }

// Client is a process's uFS client library: it implements vfs.FileSystem by
// IPC-ing every operation to the server.
type Client struct {
	srv *Server
	// fdRoute remembers which worker owns each open fd's file.
	fdRoute map[int]int
}

var _ vfs.FileSystem = (*Client)(nil)

// NewClient returns a client library handle for the server.
func NewClient(srv *Server) *Client {
	return &Client{srv: srv, fdRoute: make(map[int]int)}
}

// Name implements vfs.FileSystem.
func (c *Client) Name() string { return "ufs" }

// route returns the worker owning a file (by inode number); metadata
// operations always go to the master (worker 0).
func (c *Client) route(ino uint64) int {
	return int(ino) % len(c.srv.workers)
}

const master = 0

// Open implements vfs.FileSystem: path resolution and creation are metadata
// work on the master; the fd is then routed to the file's owner worker.
func (c *Client) Open(env *sim.Env, path string, flags int) (int, error) {
	var fd int
	var err error
	c.srv.submit(env, master, func(wenv *sim.Env) {
		fd, err = c.srv.inner.Open(wenv, path, flags)
	})
	if err != nil {
		return -1, err
	}
	var info aeofs.Inode
	c.srv.submit(env, master, func(wenv *sim.Env) {
		info, err = c.srv.inner.FStat(wenv, fd)
	})
	if err != nil {
		return -1, err
	}
	c.fdRoute[fd] = c.route(info.Ino)
	return fd, nil
}

// Close implements vfs.FileSystem.
func (c *Client) Close(env *sim.Env, fd int) error {
	var err error
	c.srv.submit(env, c.fdRoute[fd], func(wenv *sim.Env) {
		err = c.srv.inner.Close(wenv, fd)
	})
	delete(c.fdRoute, fd)
	return err
}

// Read implements vfs.FileSystem.
func (c *Client) Read(env *sim.Env, fd int, buf []byte) (int, error) {
	var n int
	var err error
	c.srv.submit(env, c.fdRoute[fd], func(wenv *sim.Env) {
		n, err = c.srv.inner.Read(wenv, fd, buf)
	})
	return n, err
}

// ReadAt implements vfs.FileSystem.
func (c *Client) ReadAt(env *sim.Env, fd int, buf []byte, off uint64) (int, error) {
	var n int
	var err error
	c.srv.submit(env, c.fdRoute[fd], func(wenv *sim.Env) {
		n, err = c.srv.inner.ReadAt(wenv, fd, buf, off)
	})
	return n, err
}

// Write implements vfs.FileSystem.
func (c *Client) Write(env *sim.Env, fd int, buf []byte) (int, error) {
	var n int
	var err error
	c.srv.submit(env, c.fdRoute[fd], func(wenv *sim.Env) {
		n, err = c.srv.inner.Write(wenv, fd, buf)
	})
	return n, err
}

// WriteAt implements vfs.FileSystem.
func (c *Client) WriteAt(env *sim.Env, fd int, buf []byte, off uint64) (int, error) {
	var n int
	var err error
	c.srv.submit(env, c.fdRoute[fd], func(wenv *sim.Env) {
		n, err = c.srv.inner.WriteAt(wenv, fd, buf, off)
	})
	return n, err
}

// Seek implements vfs.FileSystem.
func (c *Client) Seek(env *sim.Env, fd int, off uint64) error {
	var err error
	c.srv.submit(env, c.fdRoute[fd], func(wenv *sim.Env) {
		err = c.srv.inner.Seek(wenv, fd, off)
	})
	return err
}

// Fsync implements vfs.FileSystem.
func (c *Client) Fsync(env *sim.Env, fd int) error {
	var err error
	c.srv.submit(env, c.fdRoute[fd], func(wenv *sim.Env) {
		err = c.srv.inner.Fsync(wenv, fd)
	})
	return err
}

// Stat implements vfs.FileSystem (metadata: master).
func (c *Client) Stat(env *sim.Env, path string) (vfs.FileInfo, error) {
	var in aeofs.Inode
	var err error
	c.srv.submit(env, master, func(wenv *sim.Env) {
		in, err = c.srv.inner.Stat(wenv, path)
	})
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return vfs.FileInfo{
		Ino:   in.Ino,
		Dir:   in.Type == aeofs.TypeDir,
		Size:  in.Size,
		Nlink: in.Nlink,
		MTime: time.Duration(in.MTimeNS),
	}, nil
}

// Mkdir implements vfs.FileSystem (metadata: master).
func (c *Client) Mkdir(env *sim.Env, path string) error {
	var err error
	c.srv.submit(env, master, func(wenv *sim.Env) {
		err = c.srv.inner.Mkdir(wenv, path)
	})
	return err
}

// Rmdir implements vfs.FileSystem (metadata: master).
func (c *Client) Rmdir(env *sim.Env, path string) error {
	var err error
	c.srv.submit(env, master, func(wenv *sim.Env) {
		err = c.srv.inner.Rmdir(wenv, path)
	})
	return err
}

// Unlink implements vfs.FileSystem (metadata: master).
func (c *Client) Unlink(env *sim.Env, path string) error {
	var err error
	c.srv.submit(env, master, func(wenv *sim.Env) {
		err = c.srv.inner.Unlink(wenv, path)
	})
	return err
}

// Rename implements vfs.FileSystem (metadata: master).
func (c *Client) Rename(env *sim.Env, src, dst string) error {
	var err error
	c.srv.submit(env, master, func(wenv *sim.Env) {
		err = c.srv.inner.Rename(wenv, src, dst)
	})
	return err
}

// ReadDir implements vfs.FileSystem (metadata: master).
func (c *Client) ReadDir(env *sim.Env, path string) ([]vfs.Dirent, error) {
	var ds []aeofs.Dirent
	var err error
	c.srv.submit(env, master, func(wenv *sim.Env) {
		ds, err = c.srv.inner.ReadDir(wenv, path)
	})
	if err != nil {
		return nil, err
	}
	out := make([]vfs.Dirent, len(ds))
	for i, d := range ds {
		out[i] = vfs.Dirent{Ino: d.Ino, Name: d.Name}
	}
	return out, nil
}

// Truncate implements vfs.FileSystem (metadata: master).
func (c *Client) Truncate(env *sim.Env, path string, size uint64) error {
	var err error
	c.srv.submit(env, master, func(wenv *sim.Env) {
		err = c.srv.inner.Truncate(wenv, path, size)
	})
	return err
}
