package sim

// Virtual-time synchronization primitives. Tasks that contend for these
// block in *virtual* time, so lock contention — the mechanism behind every
// multicore-scalability result in the paper — is measured by the simulation
// rather than scripted. All primitives are engine-single-threaded: they must
// only be used from task bodies and engine callbacks.
//
// Sleeps here are interruptible, like the kernel's TASK_INTERRUPTIBLE: a
// kernel-path notification (Engine.Wake from an interrupt-delivery fallback)
// may resume a task whose condition has not been granted yet. Every wait
// therefore re-checks its condition and re-blocks on a spurious resume;
// grants always update the primitive's state before waking, so the check is
// race-free under the single-threaded engine.

// Mutex is a virtual-time mutual exclusion lock with FIFO handoff.
type Mutex struct {
	owner   *Task
	waiters []*Task
	// Contended counts acquisitions that had to wait.
	Contended uint64
	// Acquired counts total acquisitions.
	Acquired uint64
}

// Lock acquires m, blocking the calling task in virtual time if needed.
func (m *Mutex) Lock(env *Env) {
	t := env.Task()
	m.Acquired++
	if m.owner == nil {
		m.owner = t
		return
	}
	if m.owner == t {
		panic("sim: recursive Mutex.Lock")
	}
	m.Contended++
	m.waiters = append(m.waiters, t)
	for m.owner != t {
		env.Block()
	}
}

// Unlock releases m, handing it to the longest-waiting task if any.
func (m *Mutex) Unlock(env *Env) {
	if m.owner != env.Task() {
		panic("sim: unlock of mutex not owned by caller")
	}
	m.unlock(env.Engine())
}

func (m *Mutex) unlock(e *Engine) {
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := popWaiter(&m.waiters)
	m.owner = next
	e.Wake(next)
}

// popWaiter takes the longest-waiting task off a FIFO of waiters, moving the
// rest down: q = q[1:] would walk the array's base forward until every
// append had to reallocate, and these queues are a handful of tasks long.
func popWaiter(q *[]*Task) *Task {
	s := *q
	t := s[0]
	n := copy(s, s[1:])
	s[n] = nil
	*q = s[:n]
	return t
}

// Locked reports whether the mutex is held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// RWMutex is a virtual-time readers-writer lock. Writers take priority over
// newly arriving readers once queued (no writer starvation).
type RWMutex struct {
	readers     int
	writer      *Task
	waitWriters []*Task
	waitReaders []*rwWaiter
	// Contended counts acquisitions that had to wait.
	Contended uint64
	// Acquired counts total acquisitions (read and write).
	Acquired uint64
}

// RLock acquires a read lock.
func (rw *RWMutex) RLock(env *Env) {
	rw.Acquired++
	if rw.writer == nil && len(rw.waitWriters) == 0 {
		rw.readers++
		return
	}
	rw.Contended++
	w := &rwWaiter{task: env.Task()}
	rw.waitReaders = append(rw.waitReaders, w)
	for !w.granted {
		env.Block()
	}
}

// rwWaiter is one parked reader; granted flips (with readers++) before the
// wake, so a spuriously resumed reader can tell a grant from an interrupt.
type rwWaiter struct {
	task    *Task
	granted bool
}

// RUnlock releases a read lock.
func (rw *RWMutex) RUnlock(env *Env) {
	if rw.readers <= 0 {
		panic("sim: RUnlock without readers")
	}
	rw.readers--
	rw.dispatch(env.Engine())
}

// Lock acquires the write lock.
func (rw *RWMutex) Lock(env *Env) {
	rw.Acquired++
	if rw.writer == nil && rw.readers == 0 {
		rw.writer = env.Task()
		return
	}
	rw.Contended++
	t := env.Task()
	rw.waitWriters = append(rw.waitWriters, t)
	for rw.writer != t {
		env.Block()
	}
}

// Unlock releases the write lock.
func (rw *RWMutex) Unlock(env *Env) {
	if rw.writer != env.Task() {
		panic("sim: unlock of rwmutex not write-held by caller")
	}
	rw.writer = nil
	rw.dispatch(env.Engine())
}

func (rw *RWMutex) dispatch(e *Engine) {
	if rw.writer != nil {
		return
	}
	if rw.readers == 0 && len(rw.waitWriters) > 0 {
		next := popWaiter(&rw.waitWriters)
		rw.writer = next
		e.Wake(next)
		return
	}
	if len(rw.waitWriters) == 0 {
		for _, w := range rw.waitReaders {
			rw.readers++
			w.granted = true
			e.Wake(w.task)
		}
		rw.waitReaders = nil
	}
}

// WaitQueue parks tasks until broadcast or signalled, like a kernel wait
// queue. Unlike Completion it is reusable.
type WaitQueue struct {
	waiters []*Task
}

// Wait parks the calling task on the queue. The sleep is interruptible: a
// kernel-path notification may resume the task before Signal/Broadcast, in
// which case Wait returns with the task removed from the queue. Callers
// must re-check their condition in a loop (they all do — that is the wait
// queue contract).
func (wq *WaitQueue) Wait(env *Env) {
	t := env.Task()
	wq.waiters = append(wq.waiters, t)
	env.Block()
	for i, w := range wq.waiters {
		if w == t {
			wq.waiters = append(wq.waiters[:i], wq.waiters[i+1:]...)
			break
		}
	}
}

// Signal wakes the longest-waiting task, if any, and reports whether one
// was woken.
func (wq *WaitQueue) Signal(e *Engine) bool {
	if len(wq.waiters) == 0 {
		return false
	}
	e.Wake(popWaiter(&wq.waiters))
	return true
}

// Broadcast wakes all waiting tasks.
func (wq *WaitQueue) Broadcast(e *Engine) {
	for _, t := range wq.waiters {
		e.Wake(t)
	}
	wq.waiters = nil
}

// Len returns the number of parked tasks.
func (wq *WaitQueue) Len() int { return len(wq.waiters) }

// Barrier blocks tasks until n of them arrive, then releases all — used to
// separate benchmark setup from the measured phase.
type Barrier struct {
	n       int
	arrived int
	gen     int
	wq      WaitQueue
}

// NewBarrier returns a barrier for n tasks.
func NewBarrier(n int) *Barrier { return &Barrier{n: n} }

// Wait parks the calling task until all n participants have arrived. The
// generation counter keeps a spuriously resumed participant parked until
// the release actually happens.
func (b *Barrier) Wait(env *Env) {
	b.arrived++
	if b.arrived >= b.n {
		b.gen++
		b.wq.Broadcast(env.Engine())
		return
	}
	for gen := b.gen; gen == b.gen; {
		b.wq.Wait(env)
	}
}
