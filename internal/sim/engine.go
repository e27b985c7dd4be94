// Package sim is a deterministic discrete-event simulator of a multicore
// machine: virtual nanosecond time, simulated cores, tasks (coroutines),
// interrupt delivery, and a pluggable thread scheduler.
//
// The engine and every task body execute mutually exclusively — a task body
// is a coroutine of the engine (iter.Pull) and a park is a direct switch —
// so simulations are deterministic and free of data races by construction,
// while task bodies are written as ordinary sequential Go code.
//
// Events live in one calendar heap ordered by (at, seq) and run one at a
// time by one serial loop; event nodes are pooled. An Exec that no event
// can interrupt costs none: its task moves the clock itself
// (Engine.execInline).
//
// The steady state allocates nothing: an event is a pooled node carrying a
// callback its owner bound once (a core's exec-done, tick and transition
// ends, an IRQ frame's end), interrupt frames are recycled per core and
// nesting depth, and a task waiting on a Completion sits in the completion's
// own waiter slot. Every such pool belongs to the object that runs it, never
// to the engine, so (at, seq) order cannot depend on it.
//
// All latency- and scheduling-sensitive experiments of the Aeolia
// reproduction (Figures 2-5, 10-13, 17) run on this engine; the calibrated
// cost constants live in internal/timing.
package sim

import (
	"fmt"
	"time"

	"aeolia/internal/trace"
)

// EngineStats reports the engine's event counters (diagnostics/benchmarks).
type EngineStats struct {
	WindowEvents uint64 // always zero: kept for readers that sum it with SerialEvents
	SerialEvents uint64 // events fired
	InlineExecs  uint64 // Execs that ran to their end without parking (Engine.execInline)
	PoolHits     uint64 // event allocations served from the free pool
	PoolMisses   uint64 // event allocations that hit the Go allocator
}

// Engine owns virtual time, the event calendar, the cores, and the tasks.
type Engine struct {
	now time.Duration
	cal calendar
	seq uint64

	// Event-node free pool. Nodes are recycled the moment they fire or are
	// cancelled; Timer generations make stale handles to recycled nodes
	// inert.
	pool []*Event

	cores []*Core
	sched Scheduler
	tasks []*Task

	liveTasks int
	running   bool
	until     time.Duration // the horizon of the Run in progress (0: none)

	// depth counts the frames on the engine's stack that still have work
	// to do once the body they resume parks: each task body runCurrent
	// hands control to, and each synchronous resume that returns into its
	// caller (a completion releasing a spinner, a zero-cost interrupt
	// frame). execInline needs it to be exactly 1.
	depth int

	stats EngineStats

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
func NewEngine(n int, sched Scheduler) *Engine {
	e := &Engine{sched: sched}
	for i := 0; i < n; i++ {
		e.cores = append(e.cores, newCore(e, i))
	}
	if sched != nil {
		sched.Bind(e)
	}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Cores returns the simulated cores.
func (e *Engine) Cores() []*Core { return e.cores }

// Core returns core i.
func (e *Engine) Core(i int) *Core { return e.cores[i] }

// Scheduler returns the plugged-in scheduler.
func (e *Engine) Scheduler() Scheduler { return e.sched }

// Stats returns the engine's event counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// Schedule enqueues fn to run after delay (>= 0) of virtual time.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		panic("sim: negative delay")
	}
	return e.schedule(e.now+delay, fn)
}

// ScheduleAt enqueues fn at absolute virtual time at (>= now).
func (e *Engine) ScheduleAt(at time.Duration, fn func()) Timer {
	return e.schedule(at, fn)
}

// schedule is the single scheduling entry point.
func (e *Engine) schedule(at time.Duration, fn func()) Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule in the past: %v < %v", at, e.now))
	}
	e.seq++
	ev := e.alloc(at, e.seq, fn)
	e.cal.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// alloc takes an event node from the pool (or the allocator).
func (e *Engine) alloc(at time.Duration, seq uint64, fn func()) *Event {
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
	ev.at, ev.seq, ev.fn = at, seq, fn
	ev.state = evPending
	return ev
}

// free recycles an event node. The generation bump is what invalidates
// outstanding Timer handles.
func (e *Engine) free(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.state = evFree
	e.pool = append(e.pool, ev)
}

// cancelEvent implements Timer.Cancel; see event.go for handle semantics.
func (e *Engine) cancelEvent(ev *Event) {
	if ev.state != evPending {
		return
	}
	e.cal.remove(ev)
	e.free(ev)
}

// Spawn creates a task pinned to core and makes it runnable at the current
// virtual time. The body runs as a coroutine of the engine.
func (e *Engine) Spawn(name string, core *Core, body func(*Env)) *Task {
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
	e.liveTasks++

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
	e.running, e.until = true, until
	for {
		ev := e.cal.peek()
		if ev == nil {
			break
		}
		if until > 0 && ev.at > until {
			e.now = until
			break
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
func (e *Engine) LiveTasks() int { return e.liveTasks }

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
	e.liveTasks--
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
