// Package sim is a deterministic discrete-event simulator of a multicore
// machine: virtual nanosecond time, simulated cores, tasks (coroutines),
// interrupt delivery, and a pluggable thread scheduler.
//
// The engine and every task body execute mutually exclusively — a task body
// is a coroutine of the engine (iter.Pull) and a park is a direct switch —
// so simulations are deterministic and free of data races by construction,
// while task bodies are written as ordinary sequential Go code.
//
// Scale refactor: events live in a sharded calendar (per-lane heaps under a
// global min-index), event nodes are pooled, and — when Config.ParallelLanes
// is set — lanes whose next events fall inside a conservative lookahead
// window execute concurrently between barriers, with a merge that reassigns
// sequence numbers in exactly the order a serial run would have, so results
// stay byte-identical either way.
//
// The steady state allocates nothing: an event is a pooled node carrying a
// callback its owner bound once (a core's exec-done, tick and transition
// ends, an IRQ frame's end), interrupt frames are recycled per core and
// nesting depth, and a task waiting on a Completion sits in the completion's
// own waiter slot. Every such pool belongs to the object whose lane runs it,
// never to the engine, so parallel windows stay race-free and (at, seq)
// order cannot depend on it.
//
// All latency- and scheduling-sensitive experiments of the Aeolia
// reproduction (Figures 2-5, 10-13, 17) run on this engine; the calibrated
// cost constants live in internal/timing.
package sim

import (
	"fmt"
	"sync/atomic"
	"time"

	"aeolia/internal/trace"
)

// Config selects the engine's execution strategy. The zero value is the
// classic fully-serial engine.
type Config struct {
	// ParallelLanes enables conservative parallel execution: lanes whose
	// next events all fall inside the lookahead window run concurrently on
	// real goroutines between barriers. Off by default; when on, results
	// are byte-identical to serial mode by construction.
	ParallelLanes bool

	// Lookahead bounds each parallel window. It must not exceed the
	// minimum cross-lane interaction latency (in this stack: the minimum
	// netsim link latency — uintr posts and device completions are
	// same-core and hence same-lane). Zero disables windows.
	Lookahead time.Duration

	// ParallelAfter suppresses windows before this virtual time, keeping
	// setup/warmup phases (spawns, topology changes) strictly serial.
	ParallelAfter time.Duration
}

// EngineStats reports execution-strategy counters (diagnostics/benchmarks).
type EngineStats struct {
	Windows      uint64 // parallel windows executed
	WindowEvents uint64 // events fired inside parallel windows
	SerialEvents uint64 // events fired on the serial path
	PoolHits     uint64 // event allocations served from the free pool
	PoolMisses   uint64 // event allocations that hit the Go allocator
}

// Engine owns virtual time, the event calendar, the cores, and the tasks.
type Engine struct {
	now time.Duration
	cal *calendar
	seq uint64

	// Event-node free pool. Nodes are recycled the moment they fire or are
	// cancelled (serial path) or at the window merge (parallel path); Timer
	// generations make stale handles to recycled nodes inert.
	pool []*Event

	// win is non-nil while a parallel window is executing on lane
	// goroutines. The engine goroutine is parked in wg.Wait() for the
	// duration, so any unattributed engine call observing win != nil is a
	// determinism bug and panics.
	win *window

	cores []*Core
	sched Scheduler
	tasks []*Task

	liveTasks atomic.Int64
	running   bool

	stats EngineStats

	// Config selects serial vs parallel-lane execution; see Config.
	Config Config

	// TaskRunHook, if set, runs whenever a task is switched in on a core
	// (the kernel's context-switch-in path; AeoKern uses it to install
	// the incoming thread's UINV/UPIDADDR).
	TaskRunHook func(c *Core, t *Task)
	// TaskStopHook runs whenever a task is switched out of a core.
	TaskStopHook func(c *Core, t *Task)

	// Tracer, when non-nil, receives typed events from every instrumented
	// subsystem bound to this engine (internal/trace). Emit points pay a
	// single nil check when tracing is off; emitting never consumes
	// virtual time, so traced and untraced runs are time-identical.
	// A non-nil Tracer also suppresses parallel windows: the trace is a
	// single ordered stream.
	Tracer *trace.Tracer
}

// Scheduler is the thread-scheduling policy plugged into the engine. The
// running task of a core is *not* in the runqueue; PickNext pops the next
// task to run.
type Scheduler interface {
	// Bind attaches the scheduler to the engine before any task runs.
	Bind(e *Engine)
	// Enqueue inserts a runnable task into its core's runqueue.
	Enqueue(t *Task)
	// PickNext pops the best runnable task for core c, or nil for idle.
	PickNext(c *Core) *Task
	// NrRunnable returns the number of queued runnable tasks on c,
	// excluding the running one.
	NrRunnable(c *Core) int
	// ShouldPreempt reports whether newly-woken t should preempt the
	// task currently running on core c.
	ShouldPreempt(t *Task, c *Core) bool
	// Tick is the periodic scheduler tick for c; it may set need-resched
	// on the core.
	Tick(c *Core)
	// OnRun notifies that t was switched in on its core.
	OnRun(t *Task)
	// OnStop notifies that t was switched out; requeue reports whether
	// the task stays runnable (preemption/yield) as opposed to
	// blocking or exiting. OnStop must not re-enqueue the task; the
	// engine calls Enqueue itself.
	OnStop(t *Task, requeue bool)
}

// NewEngine creates an engine with n cores governed by sched. sched may be
// nil only if no tasks are spawned (pure event/device simulations).
// All cores start on lane 0 (the engine lane, never parallelized); assign
// cores to their own lanes via NewLane/SetLane to enable windows.
func NewEngine(n int, sched Scheduler) *Engine {
	e := &Engine{
		cal:   newCalendar(),
		sched: sched,
	}
	for i := 0; i < n; i++ {
		e.cores = append(e.cores, newCore(e, i))
	}
	if sched != nil {
		sched.Bind(e)
	}
	return e
}

// Now returns the current virtual time. It is an engine-context (serial)
// read: inside a parallel window each lane has its own clock, so
// unattributed reads are a determinism bug — use Core.Now, Env.Now, or
// IRQCtx.Now from simulation code.
func (e *Engine) Now() time.Duration {
	if e.win != nil {
		panic("sim: unattributed Engine.Now() during a parallel window; use Core/Env/IRQCtx.Now")
	}
	return e.now
}

// InWindow reports whether a parallel window is executing. An object whose
// records are taken on one lane and returned on another recycles them only
// outside a window (engine context), where no second lane can run; inside
// one it allocates and lets them go, as event nodes do. Safe from any lane:
// the window is opened before the lane goroutines start and closed after
// they are joined.
func (e *Engine) InWindow() bool { return e.win != nil }

// Cores returns the simulated cores.
func (e *Engine) Cores() []*Core { return e.cores }

// Core returns core i.
func (e *Engine) Core(i int) *Core { return e.cores[i] }

// Scheduler returns the plugged-in scheduler.
func (e *Engine) Scheduler() Scheduler { return e.sched }

// Stats returns the execution-strategy counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// NewLane creates a fresh event lane (calendar shard) and returns its id.
// Assign cores to it with Core.SetLane. Lane 0 always exists and holds
// unattributed events; it is never parallelized.
func (e *Engine) NewLane() int {
	if e.win != nil {
		panic("sim: NewLane during a parallel window")
	}
	return e.cal.addShard()
}

// Schedule enqueues fn to run after delay (>= 0) of virtual time. The
// event is unattributed (engine lane); simulation code running on a core
// should use Core/Env scheduling so the event lands in that core's lane.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		panic("sim: negative delay")
	}
	return e.schedule(nil, nil, e.nowUnattr()+delay, fn)
}

// ScheduleAt enqueues fn at absolute virtual time at (>= now),
// unattributed (engine lane).
func (e *Engine) ScheduleAt(at time.Duration, fn func()) Timer {
	return e.schedule(nil, nil, at, fn)
}

func (e *Engine) nowUnattr() time.Duration {
	if e.win != nil {
		panic("sim: unattributed Engine.Schedule during a parallel window; use Core/Env scheduling")
	}
	return e.now
}

// schedule is the single scheduling entry point. from is the core whose
// execution context is scheduling (nil = engine context); target is the
// core whose lane the event belongs to (nil = engine lane 0).
func (e *Engine) schedule(from, target *Core, at time.Duration, fn func()) Timer {
	var lane int32
	if target != nil {
		lane = target.lane
	}
	w := e.win
	if w == nil {
		if at < e.now {
			panic(fmt.Sprintf("sim: schedule in the past: %v < %v", at, e.now))
		}
		e.seq++
		ev := e.alloc(at, e.seq, lane, fn)
		e.cal.push(ev)
		return Timer{ev: ev, gen: ev.gen}
	}
	// Inside a parallel window: the emission is buffered on the executing
	// lane and receives its real sequence number at the merge.
	if from == nil {
		panic("sim: unattributed Engine.Schedule during a parallel window; use Core/Env scheduling")
	}
	lc := w.lcs[from.lane]
	if lc == nil || lc.cur == nil {
		panic("sim: schedule from a lane not participating in the window")
	}
	if at < lc.now {
		panic(fmt.Sprintf("sim: schedule in the past: %v < %v (lane %d)", at, lc.now, from.lane))
	}
	ev := &Event{eng: e, at: at, seq: tentBit | lc.tent, lane: lane, fn: fn}
	lc.tent++
	if lane == from.lane && at < w.end {
		ev.state = evWindow
		pushHeap(&lc.wheap, ev)
	} else {
		if at < w.end {
			panic(fmt.Sprintf("sim: cross-lane event at %v inside lookahead window ending %v (Lookahead exceeds the minimum cross-lane latency)", at, w.end))
		}
		ev.state = evEmitted
	}
	lc.cur.emits = append(lc.cur.emits, ev)
	return Timer{ev: ev, gen: ev.gen}
}

// alloc takes an event node from the pool (or the allocator).
func (e *Engine) alloc(at time.Duration, seq uint64, lane int32, fn func()) *Event {
	var ev *Event
	if n := len(e.pool); n > 0 {
		ev = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		e.stats.PoolHits++
	} else {
		ev = &Event{eng: e}
		e.stats.PoolMisses++
	}
	ev.at, ev.seq, ev.lane, ev.fn = at, seq, lane, fn
	ev.state = evPending
	ev.cancelled = false
	return ev
}

// free recycles an event node. Engine context only: the generation bump is
// what invalidates outstanding Timer handles, and handles are read from
// lane goroutines.
func (e *Engine) free(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.state = evFree
	ev.cancelled = false
	if ev.emits != nil {
		ev.emits = ev.emits[:0]
	}
	e.pool = append(e.pool, ev)
}

// cancelEvent implements Timer.Cancel; see event.go for handle semantics.
func (e *Engine) cancelEvent(ev *Event) {
	w := e.win
	if w == nil {
		if ev.state != evPending {
			return
		}
		e.cal.remove(ev)
		e.free(ev)
		return
	}
	switch ev.state {
	case evPending:
		// A pre-window event still in a calendar shard. Only the owning
		// lane's execution can hold a handle to it during a window; the
		// node is recycled at the merge (frees are engine-context only).
		lc := w.lcs[ev.lane]
		if lc == nil {
			panic("sim: cancel of a non-participating lane's event during a parallel window")
		}
		e.cal.removeDeferred(ev)
		ev.state = evDone
		ev.fn = nil
		lc.recycle = append(lc.recycle, ev)
	case evWindow:
		lc := w.lcs[ev.lane]
		removeHeap(&lc.wheap, ev.index)
		ev.fn = nil
		if ev.seq&tentBit != 0 {
			// Window-born: it stays in its parent's emission list and
			// still consumes a sequence number at the merge, exactly as
			// a cancelled event consumed one at schedule time serially.
			ev.state = evEmitted
			ev.cancelled = true
		} else {
			ev.state = evDone
			lc.recycle = append(lc.recycle, ev)
		}
	case evEmitted:
		ev.cancelled = true
		ev.fn = nil
	}
}

// Spawn creates a task pinned to core and makes it runnable at the current
// virtual time. The body runs as a coroutine of the engine.
func (e *Engine) Spawn(name string, core *Core, body func(*Env)) *Task {
	if e.win != nil {
		panic("sim: Spawn during a parallel window (spawn serially, e.g. before ParallelAfter)")
	}
	t := &Task{
		ID:    len(e.tasks),
		Name:  name,
		eng:   e,
		body:  body,
		state: TaskNew,
		core:  nil,
	}
	t.affinity = core
	t.wakeFn = func() { e.Wake(t) }
	e.tasks = append(e.tasks, t)
	e.liveTasks.Add(1)

	t.start()

	t.state = TaskRunnable
	t.StartedAt = e.now
	t.waitStart = e.now
	e.sched.Enqueue(t)
	e.kickAfterWake(t)
	return t
}

var errAborted = fmt.Errorf("sim: task aborted")

// Wake makes a blocked task runnable, following the kernel wakeup model: the
// caller is responsible for charging ttwu cost (interrupt handlers do so via
// IRQCtx.Charge; tasks via Exec). Waking a non-blocked task is a no-op.
func (e *Engine) Wake(t *Task) {
	if t.state != TaskBlocked {
		return
	}
	t.state = TaskRunnable
	t.waitStart = t.affinity.now()
	e.sched.Enqueue(t)
	e.kickAfterWake(t)
}

// kickAfterWake triggers dispatch/preemption on the woken task's core.
func (e *Engine) kickAfterWake(t *Task) {
	c := t.affinity
	if c.current == t {
		panic("sim: woke the running task")
	}
	switch {
	case c.inIRQ || c.inTransition:
		// endIRQ / the transition completion performs the dispatch,
		// but the wakeup-preemption decision must be taken now.
		if c.current != nil && e.sched.ShouldPreempt(t, c) {
			c.needResched = true
		}
	case c.inBody:
		// The wake came from inside the running task's own body (the
		// only context that executes while inBody holds). The body
		// cannot be suspended mid-statement, so record the preemption
		// and honor it at the task's next park or scheduler tick.
		if e.sched.ShouldPreempt(t, c) {
			c.needResched = true
		}
	case c.current == nil:
		e.reschedule(c, true)
	case e.sched.ShouldPreempt(t, c):
		c.needResched = true
		c.kick()
	}
}

// Run drives the simulation until the event calendar empties or the given
// virtual-time horizon passes (0 means no horizon). It returns the final
// virtual time.
func (e *Engine) Run(until time.Duration) time.Duration {
	e.running = true
	for {
		ev := e.cal.peek()
		if ev == nil {
			break
		}
		if until > 0 && ev.at > until {
			e.now = until
			break
		}
		if e.parallelReady(ev.at) && e.runWindow(ev.at, until) {
			continue
		}
		ev = e.cal.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.stats.SerialEvents++
		// Recycle the node before running the callback: the handle
		// generation advances first, so any Timer operation the callback
		// performs on its own (already-fired) event is a correct no-op,
		// and the node is immediately reusable for what fn schedules.
		fn := ev.fn
		e.free(ev)
		fn()
	}
	// A bounded run always advances the clock to its horizon, so callers
	// polling in slices make progress even when the queue drains.
	if until > 0 && e.now < until {
		e.now = until
	}
	e.running = false
	return e.now
}

// LiveTasks returns the number of tasks not yet finished.
func (e *Engine) LiveTasks() int { return int(e.liveTasks.Load()) }

// Shutdown unwinds every unfinished task body (its deferred functions run; a
// body that was never dispatched never starts) so that nothing of the engine
// is left running. The simulation must not be Run again afterwards.
func (e *Engine) Shutdown() {
	for _, t := range e.tasks {
		if t.state == TaskDone {
			continue
		}
		t.state = TaskDone
		t.stop()
	}
}

func (e *Engine) taskFinished(t *Task) {
	t.FinishedAt = t.affinity.now()
	e.liveTasks.Add(-1)
}

// DebugCore renders a core's execution state (diagnostics).
func (e *Engine) DebugCore(c *Core) string {
	cur := "idle"
	op := "-"
	spin := "-"
	if c.current != nil {
		cur = c.current.Name
		op = fmt.Sprint(int(c.current.op))
		if c.current.spinOn != nil {
			spin = fmt.Sprint(c.current.spinOn.Done())
		}
	}
	return fmt.Sprintf("cur=%s op=%s spinDone=%s execEv=%v inIRQ=%v inTrans=%v pend=%d execRem=%v",
		cur, op, spin, c.execEv.Armed(), c.inIRQ, c.inTransition, len(c.pending), func() time.Duration {
			if c.current != nil {
				return c.current.execRem
			}
			return 0
		}())
}
