package sim

import (
	"fmt"
	"time"

	"aeolia/internal/timing"
)

// Trace, when set, receives engine execution-path notes (debugging). Every
// call site tests it first, so no argument is evaluated or boxed while it is
// nil.
var Trace func(format string, args ...any)

// IRQHandler handles an interrupt vector raised on a core. It runs in
// "interrupt context": it may charge time via ctx.Charge, wake tasks, fire
// completions, and request rescheduling, but must not block.
type IRQHandler func(ctx *IRQCtx, vector int)

// IRQCtx is the context passed to interrupt handlers. It is valid until the
// handler returns and no longer: it lives in the core's recycled IRQ frame,
// so a context kept past that point would read and charge some later
// interrupt. Every method panics on one instead.
type IRQCtx struct {
	eng  *Engine
	core *Core
	cost time.Duration
	live bool // the handler this context was handed to is still running
}

func (c *IRQCtx) check() {
	if !c.live {
		panic("sim: IRQCtx used after its interrupt handler returned")
	}
}

// Charge adds d to the time consumed by this interrupt on the core.
func (c *IRQCtx) Charge(d time.Duration) { c.check(); c.cost += d }

// Engine returns the owning engine.
func (c *IRQCtx) Engine() *Engine { c.check(); return c.eng }

// Core returns the interrupted core.
func (c *IRQCtx) Core() *Core { c.check(); return c.core }

// Now returns the current virtual time on the interrupted core.
func (c *IRQCtx) Now() time.Duration { c.check(); return c.core.now() }

// Current returns the task that was running when the interrupt arrived
// (nil if the core was idle).
func (c *IRQCtx) Current() *Task { c.check(); return c.core.current }

type pendingIRQ struct {
	vector int
}

// irqFrame is one in-service interrupt on the core's IRQ stack. The bottom
// frame is started by startIRQ and charges its handler cost through endEv;
// nested frames (preemptive delivery of a more urgent vector) run their
// handler synchronously and push their cost into the frame they
// interrupted. A core allocates one frame per nesting depth it ever reaches
// and reuses it for every later interrupt at that depth.
type irqFrame struct {
	IRQCtx
	vector int
	rank   int
	endEv  Timer         // bottom frame only: pending end-of-IRQ event
	endAt  time.Duration // virtual time endEv fires at
	end    func()        // c.frameEnd(f), bound when the frame is allocated
}

// DefaultMaxIRQNest bounds the IRQ stack depth (bottom frame plus nested
// preemptive deliveries) when Core.MaxIRQNest is unset.
const DefaultMaxIRQNest = 4

// Core is one simulated CPU. At any instant it is either idle, running a
// task (possibly mid-Exec or spinning), servicing an interrupt, or in a
// context-switch transition.
type Core struct {
	ID  int
	eng *Engine

	current *Task
	idle    bool

	needResched bool

	// Mid-exec bookkeeping: when the current task is inside Exec or
	// SpinWait, execStart records when the current slice began.
	execStart  time.Duration
	execEv     Timer // pending exec-completion event (unarmed while spinning)
	execEvFrom string

	inIRQ        bool
	inTransition bool
	pending      []pendingIRQ
	irqFrames    []*irqFrame // irqFrames[:irqDepth] is the IRQ stack, the rest are retired frames awaiting reuse
	irqDepth     int
	irqRank      func(vector int) int

	// MaxIRQNest bounds the IRQ stack depth when an IRQ ranking is
	// installed (DefaultMaxIRQNest if zero).
	MaxIRQNest int

	// inBody is set while control is handed to the current task's body
	// (from t.next() until it parks). The body is the only context
	// that can execute during that window, and it cannot be suspended
	// mid-statement: scheduling operations it triggers (wakes, spawns)
	// must defer preemption of this core to the next decision point.
	inBody bool

	irqHandler IRQHandler

	tickEv Timer

	// incoming is the task a charged transition (switch-in, or the resume
	// hooks' handler frame) is on its way to; at most one is in flight
	// because inTransition is set for its duration.
	incoming *Task

	// The core's event callbacks, bound once so that scheduling one
	// allocates nothing.
	execDoneFn, tickFn, idledFn, switchedFn, hookedFn func()

	// Stats.
	IdleTime       time.Duration
	idleSince      time.Duration
	IRQCount       int
	NestedIRQCount int
	SwitchCount    int
	PreemptCount   int
}

func newCore(e *Engine, id int) *Core {
	c := &Core{ID: id, eng: e, idle: true}
	c.execDoneFn, c.tickFn, c.idledFn, c.switchedFn, c.hookedFn = c.execDone, c.tick, c.idled, c.switched, c.hooked
	return c
}

// Idle reports whether the core is idle.
func (c *Core) Idle() bool { return c.idle }

// now returns the engine's virtual time.
func (c *Core) now() time.Duration { return c.eng.now }

// Now returns the current virtual time as observed on this core.
func (c *Core) Now() time.Duration { return c.now() }

// Schedule enqueues fn after delay of virtual time.
func (c *Core) Schedule(delay time.Duration, fn func()) Timer {
	return c.eng.Schedule(delay, fn)
}

// ScheduleAt enqueues fn at absolute virtual time at.
func (c *Core) ScheduleAt(at time.Duration, fn func()) Timer {
	return c.eng.schedule(at, fn)
}

// SetIRQHandler installs the core's interrupt handler.
func (c *Core) SetIRQHandler(h IRQHandler) { c.irqHandler = h }

// SetIRQRank installs a priority ranking for interrupt vectors: lower rank
// is more urgent. With a ranking installed, a raised vector that strictly
// outranks the one in service is delivered immediately as a nested
// interrupt (bounded by MaxIRQNest frames) instead of waiting for it to
// finish, and pended vectors are drained most-urgent-first. A nil ranking
// (the default) keeps strict FIFO, non-nesting delivery.
func (c *Core) SetIRQRank(rank func(vector int) int) { c.irqRank = rank }

func (c *Core) rankOf(vector int) int {
	if c.irqRank == nil {
		return 0
	}
	return c.irqRank(vector)
}

func (c *Core) maxNest() int {
	if c.MaxIRQNest > 0 {
		return c.MaxIRQNest
	}
	return DefaultMaxIRQNest
}

// SetNeedResched marks the core for rescheduling at the next scheduling
// decision point (interrupt return or tick).
func (c *Core) SetNeedResched() { c.needResched = true }

// RaiseIRQ raises vector on the core. If the core is servicing another
// interrupt or mid context-switch, delivery is deferred until it finishes —
// unless an IRQ ranking is installed and vector strictly outranks the
// interrupt in service, in which case it preempts it as a nested interrupt.
func (c *Core) RaiseIRQ(vector int) {
	if c.inTransition {
		c.pending = append(c.pending, pendingIRQ{vector})
		return
	}
	if c.inIRQ {
		if c.irqRank != nil && c.irqDepth < c.maxNest() {
			if inner := c.irqFrames[c.irqDepth-1]; c.irqRank(vector) < inner.rank {
				c.nestIRQ(vector)
				return
			}
		}
		c.pending = append(c.pending, pendingIRQ{vector})
		return
	}
	c.startIRQ(vector)
}

// pushFrame opens the IRQ frame for the next nesting depth.
func (c *Core) pushFrame(vector int) *irqFrame {
	if c.irqDepth == len(c.irqFrames) {
		f := &irqFrame{IRQCtx: IRQCtx{eng: c.eng, core: c}}
		f.end = func() { c.frameEnd(f) }
		c.irqFrames = append(c.irqFrames, f)
	}
	f := c.irqFrames[c.irqDepth]
	f.vector, f.rank, f.cost = vector, c.rankOf(vector), 0
	c.irqDepth++
	return f
}

// handle runs the core's interrupt handler on f; f's context is valid for
// exactly that long.
func (c *Core) handle(f *irqFrame) {
	if c.irqHandler != nil {
		f.live = true
		c.irqHandler(&f.IRQCtx, f.vector)
		f.live = false
	}
}

func (c *Core) startIRQ(vector int) {
	now := c.now()
	c.IRQCount++
	if Trace != nil {
		Trace("%v core%d startIRQ vec=%d cur=%v", now, c.ID, vector, c.current)
	}
	if c.idle {
		// Fold accumulated idle time but keep the core logically idle:
		// the ISR interrupts the idle loop, and leaving idle (with its
		// statistics-update toll) only happens if the IRQ return path
		// dispatches a task.
		c.IdleTime += now - c.idleSince
		c.idleSince = now
	}
	if c.current != nil {
		c.suspendExec()
	}
	c.inIRQ = true
	f := c.pushFrame(vector)
	c.handle(f)
	if f.cost > 0 {
		f.endAt = c.now() + f.cost
		f.endEv = c.Schedule(f.cost, f.end)
		return
	}
	// A free frame ends on the spot and may resume the task under
	// whoever raised the interrupt, who goes on after it parks.
	c.eng.depth++
	c.frameEnd(f)
	c.eng.depth--
}

// nestIRQ services vector immediately on top of the in-progress interrupt:
// the handler runs now, and its execution time pushes back the completion
// of the interrupted frame — by rescheduling its end event, or, when the
// interrupted handler is itself still executing, by folding into the charge
// it is accumulating.
func (c *Core) nestIRQ(vector int) {
	c.IRQCount++
	c.NestedIRQCount++
	if Trace != nil {
		Trace("%v core%d nestIRQ vec=%d depth=%d", c.now(), c.ID, vector, c.irqDepth)
	}
	f := c.pushFrame(vector)
	c.handle(f)
	c.irqDepth--
	cost := f.cost
	if cost <= 0 {
		return
	}
	parent := c.irqFrames[c.irqDepth-1]
	if !parent.endEv.Armed() {
		parent.cost += cost
		return
	}
	parent.endEv.Cancel()
	parent.endAt += cost
	parent.endEv = c.ScheduleAt(parent.endAt, parent.end)
}

// suspendExec pauses the current task's Exec/Spin slice, folding the elapsed
// time into its accounting.
func (c *Core) suspendExec() {
	t := c.current
	if t == nil {
		return
	}
	now := c.now()
	if Trace != nil {
		Trace("%v core%d suspendExec %s op=%d ev=%v", now, c.ID, t.Name, t.op, c.execEv.Armed())
	}
	elapsed := now - c.execStart
	t.CPUTime += elapsed
	switch t.op {
	case opExec:
		t.execRem -= elapsed
		if t.execRem < 0 {
			t.execRem = 0
		}
		if c.execEv.Armed() {
			c.execEv.Cancel()
		}
		c.execEv = Timer{}
	case opSpin:
		// Nothing to cancel; spinning has no completion event.
	}
	c.execStart = now
}

// resumeExec restarts the current task's suspended Exec/Spin slice, or
// resumes the task body if the slice is complete.
func (c *Core) resumeExec() {
	t := c.current
	if t == nil {
		panic("sim: resumeExec on empty core")
	}
	c.execStart = c.now()
	switch t.op {
	case opExec:
		if t.execRem <= 0 {
			c.eng.runCurrent(c)
			return
		}
		if c.execEv.Armed() {
			panic(fmt.Sprintf("sim: resumeExec overwriting pending execEv from %s at=%v now=%v cur=%s",
				c.execEvFrom, c.execEv.At(), c.now(), t.Name))
		}
		c.execEvFrom = "resumeExec"
		c.execEv = c.Schedule(t.execRem, c.execDoneFn)
	case opSpin:
		if t.spinOn.Done() {
			c.eng.runCurrent(c)
			return
		}
		// Keep spinning; the completion releases us when it fires.
	default:
		c.eng.runCurrent(c)
	}
}

func (c *Core) execDone() {
	t := c.current
	c.execEv = Timer{}
	if t == nil || t.op != opExec {
		panic(fmt.Sprintf("sim: stray execDone: %s", c.eng.DebugCore(c)))
	}
	t.CPUTime += c.now() - c.execStart
	t.execRem = 0
	c.eng.runCurrent(c)
}

// frameEnd retires the bottom IRQ frame once its charged cost has elapsed
// (nested frames retire synchronously inside nestIRQ).
func (c *Core) frameEnd(f *irqFrame) {
	if Trace != nil {
		Trace("%v core%d endIRQ vec=%d cur=%v", c.now(), c.ID, f.vector, c.current)
	}
	if n := c.irqDepth; n == 0 || c.irqFrames[n-1] != f {
		panic("sim: IRQ frame ended out of order")
	}
	c.irqDepth--
	f.endEv = Timer{}
	c.inIRQ = false
	if len(c.pending) > 0 {
		c.startIRQ(c.popPending())
		return
	}
	c.afterIRQ()
}

// popPending removes and returns the next pended vector: the most urgent by
// the installed rank (FIFO among equals), or plain FIFO without a ranking.
func (c *Core) popPending() int {
	best := 0
	if c.irqRank != nil {
		r := c.irqRank(c.pending[0].vector)
		for i := 1; i < len(c.pending); i++ {
			if ri := c.irqRank(c.pending[i].vector); ri < r {
				best, r = i, ri
			}
		}
	}
	v := c.pending[best].vector
	c.pending = append(c.pending[:best], c.pending[best+1:]...)
	return v
}

// afterIRQ is the return-from-interrupt scheduling decision point.
func (c *Core) afterIRQ() {
	e := c.eng
	if c.current == nil {
		// Interrupted the idle loop (or a transition target vanished):
		// dispatch if anything became runnable.
		e.reschedule(c, true)
		return
	}
	if c.needResched {
		e.preemptCurrent(c)
		return
	}
	c.resumeExec()
}

// kick forces a scheduling decision point on the core, as a reschedule IPI
// would. It is a no-op while the core is in an interrupt or transition
// (those end with a decision point anyway).
func (c *Core) kick() {
	if c.inIRQ || c.inTransition || c.current == nil {
		return
	}
	c.suspendExec()
	c.afterIRQ()
}

func (c *Core) leaveIdleAccounting() {
	if c.idle {
		c.IdleTime += c.now() - c.idleSince
		c.idle = false
	}
}

func (c *Core) goIdle() {
	c.idle = true
	c.idleSince = c.now()
	c.stopTick()
}

func (c *Core) armTick() {
	if c.tickEv.Armed() {
		return
	}
	c.tickEv = c.Schedule(timing.SchedTick, c.tickFn)
}

// tick is the scheduler tick: it re-arms itself while the core runs a task.
func (c *Core) tick() {
	e := c.eng
	c.tickEv = Timer{}
	if c.current == nil {
		return
	}
	c.tickEv = c.Schedule(timing.SchedTick, c.tickFn)
	if e.sched != nil {
		e.sched.Tick(c)
	}
	if c.needResched && !c.inIRQ && !c.inTransition && c.current != nil {
		c.suspendExec()
		e.preemptCurrent(c)
	}
}

func (c *Core) stopTick() {
	if c.tickEv.Armed() {
		c.tickEv.Cancel()
	}
	c.tickEv = Timer{}
}

// preemptCurrent moves the running task back to the runqueue and schedules
// the next one.
func (e *Engine) preemptCurrent(c *Core) {
	t := c.current
	if t == nil {
		panic("sim: preempt on idle core")
	}
	c.PreemptCount++
	if e.TaskStopHook != nil {
		e.TaskStopHook(c, t)
	}
	e.sched.OnStop(t, true)
	t.state = TaskRunnable
	t.waitStart = c.now()
	t.core = nil
	c.current = nil
	e.sched.Enqueue(t)
	e.reschedule(c, true)
}

// reschedule picks the next task for c and switches to it, charging the
// kernel model's transition costs. If charge is false the switch is free
// (used only by direct-resume paths).
func (e *Engine) reschedule(c *Core, charge bool) {
	if c.current != nil {
		panic("sim: reschedule with current task")
	}
	if c.inTransition {
		return
	}
	if e.sched == nil {
		// Scheduler-less engines (pure event/device simulations) have
		// no tasks to dispatch.
		if !c.idle {
			c.goIdle()
		}
		c.drainPending()
		return
	}
	next := e.sched.PickNext(c)
	if next == nil {
		c.needResched = false
		if !c.idle {
			// Switching to the idle task costs a context switch,
			// overlapped with whatever the core was waiting for.
			if charge {
				c.inTransition = true
				c.Schedule(timing.ContextSwitch, c.idledFn)
				return
			}
			c.goIdle()
		}
		c.drainPending()
		return
	}

	cost := time.Duration(0)
	if charge {
		cost = timing.ContextSwitch
		if c.idle {
			// Leaving idle pays the statistics-update toll of
			// Figure 4 step 2 in addition to the switch.
			cost += timing.IdleExit
		}
	}
	c.leaveIdleAccounting()
	c.needResched = false
	if cost > 0 {
		c.inTransition = true
		c.incoming = next
		c.Schedule(cost, c.switchedFn)
		return
	}
	e.startTask(c, next)
}

// idled ends the charged switch to the idle task.
func (c *Core) idled() {
	c.inTransition = false
	if c.current == nil && c.eng.sched.NrRunnable(c) > 0 {
		c.eng.reschedule(c, true)
		return
	}
	c.goIdle()
	c.drainPending()
}

// endTransition ends a charged transition and returns the task it was for.
func (c *Core) endTransition() *Task {
	t := c.incoming
	c.incoming = nil
	c.inTransition = false
	return t
}

// switched ends the charged switch to the incoming task.
func (c *Core) switched() { c.eng.startTask(c, c.endTransition()) }

// hooked ends the handler frame startTask charged for the incoming task's
// resume hooks.
func (c *Core) hooked() {
	t := c.endTransition()
	if c.current != t {
		return
	}
	if Trace != nil {
		Trace("%v core%d hook-continue %s op=%d", c.now(), c.ID, t.Name, t.op)
	}
	c.eng.continueTask(c, t)
}

func (c *Core) drainPending() {
	for len(c.pending) > 0 && !c.inIRQ && !c.inTransition {
		c.startIRQ(c.popPending())
	}
}

// startTask makes t current on c and resumes its body.
func (e *Engine) startTask(c *Core, t *Task) {
	if Trace != nil {
		Trace("%v core%d startTask %s op=%d", c.now(), c.ID, t.Name, t.op)
	}
	c.SwitchCount++
	c.current = t
	t.core = c
	t.state = TaskRunning
	e.sched.OnRun(t)
	if e.TaskRunHook != nil {
		e.TaskRunHook(c, t)
	}
	c.armTick()
	// Inserted user-handler frames (§6.1) run on the kernel's return
	// path when the task is switched back in — crucially also when the
	// task was preempted mid-spin, whose body won't otherwise resume
	// until the very completion the handler delivers.
	if len(t.onResume) > 0 {
		// The handler frame executes in transition context so that a
		// completion it fires cannot re-enter the task body before the
		// frame's cost has been charged (continueTask then observes the
		// fired completion and resumes the body exactly once).
		c.inTransition = true
		var cost time.Duration
		for len(t.onResume) > 0 {
			cost += t.popResumeHook()()
		}
		if cost > 0 {
			if Trace != nil {
				Trace("%v core%d hook-transition %s cost=%v", c.now(), c.ID, t.Name, cost)
			}
			t.CPUTime += cost
			c.incoming = t
			c.Schedule(cost, c.hookedFn)
			return
		}
		c.inTransition = false
	}
	e.continueTask(c, t)
}

// continueTask resumes t's in-progress operation (or body) on c.
func (e *Engine) continueTask(c *Core, t *Task) {
	if len(c.pending) > 0 {
		// An interrupt arrived during the switch; deliver it before
		// the task makes progress.
		c.execStart = c.now()
		c.drainPending()
		return
	}
	switch t.op {
	case opExec, opSpin:
		// Resuming a preempted slice.
		c.resumeExec()
	default:
		e.runCurrent(c)
	}
}

// runCurrent resumes the current task's body and services the ops it
// parks with, until the task starts a timed wait (exec/spin) or leaves the
// core (block/yield/done).
func (e *Engine) runCurrent(c *Core) {
	for {
		t := c.current
		if t == nil {
			panic("sim: runCurrent on idle core")
		}
		if Trace != nil {
			Trace("%v core%d runCurrent resume %s", c.now(), c.ID, t.Name)
		}
		// Hand control to the task body.
		c.inBody = true
		e.depth++
		t.next()
		e.depth--
		c.inBody = false
		if Trace != nil {
			Trace("%v core%d parked %s op=%d", c.now(), c.ID, t.Name, t.op)
		}

		switch t.op {
		case opExec:
			// A wake from inside the body may have requested
			// preemption; honor it now that the task has parked.
			if c.needResched {
				e.preemptCurrent(c)
				return
			}
			c.execStart = c.now()
			rem := t.execRem
			if c.execEv.Armed() {
				panic("sim: runCurrent of " + t.Name + " overwriting pending execEv from " + c.execEvFrom)
			}
			c.execEvFrom = "runCurrent"
			c.execEv = c.Schedule(rem, c.execDoneFn)
			return
		case opSpin:
			if t.spinOn.Done() {
				continue // resume immediately
			}
			if c.needResched {
				e.preemptCurrent(c)
				return
			}
			c.execStart = c.now()
			t.spinOn.wait(t, opSpin)
			return
		case opBlock:
			if e.TaskStopHook != nil {
				e.TaskStopHook(c, t)
			}
			e.sched.OnStop(t, false)
			t.state = TaskBlocked
			t.core = nil
			c.current = nil
			e.reschedule(c, true)
			return
		case opYield:
			if e.TaskStopHook != nil {
				e.TaskStopHook(c, t)
			}
			e.sched.OnStop(t, true)
			t.state = TaskRunnable
			t.waitStart = c.now()
			t.core = nil
			c.current = nil
			e.sched.Enqueue(t)
			e.reschedule(c, true)
			return
		case opDone:
			if e.TaskStopHook != nil {
				e.TaskStopHook(c, t)
			}
			e.sched.OnStop(t, false)
			t.state = TaskDone
			t.core = nil
			c.current = nil
			e.taskFinished(t)
			e.reschedule(c, true)
			return
		default:
			panic("sim: task parked without op")
		}
	}
}

// execInline is Exec's fast path: when the slow path — park, exec-done
// event at now+d, resume — could not let anything else run in between, it
// charges d to t, moves the clock to now+d and reports true. Nothing then
// runs on the task's stack but the task itself, and the clock moves only
// past an empty stretch of the calendar.
func (e *Engine) execInline(t *Task, d time.Duration) bool {
	// A trace records the park and the resume that this would skip.
	if Trace != nil {
		return false
	}
	// An outer body, or the caller of a release or of a zero-cost
	// interrupt, resumes after this body parks and must see the old now.
	if e.depth != 1 {
		return false
	}
	// Outside Run there is no loop that would pop the exec-done event.
	if !e.running {
		return false
	}
	end := e.now + d
	// The horizon would stop Run before the exec-done event.
	if e.until > 0 && end > e.until {
		return false
	}
	c := t.core
	// Only the running body of this core's task may move the clock.
	if c == nil || c.current != t || !c.inBody {
		return false
	}
	// An interrupt in service or pending, a transition, or a preemption
	// owed at the park would take the core from the task first.
	if c.inIRQ || c.inTransition || c.needResched || len(c.pending) > 0 {
		return false
	}
	// An event due by end runs first: one at exactly end was scheduled
	// before the exec-done event would be, so it has the lower seq.
	if ev := e.cal.peek(); ev != nil && ev.at <= end {
		return false
	}
	c.execStart = e.now
	t.CPUTime += d
	e.now = end
	e.stats.InlineExecs++
	return true
}

// spinFired handles a Completion firing while a task is (or was) spinning
// on it. If the task is still current on its core, it resumes immediately
// with no scheduler involvement — the defining property of polling. If the
// task was preempted mid-spin, it simply finds the completion done when it
// is next scheduled.
func (e *Engine) spinFired(t *Task) {
	if t.state != TaskRunning || t.op != opSpin {
		return
	}
	c := t.core
	if c == nil || c.current != t {
		return
	}
	if c.inIRQ || c.inTransition {
		// The interrupt handler that fired the completion is still
		// accruing cost; afterIRQ/resumeExec will notice Done().
		return
	}
	t.CPUTime += c.now() - c.execStart
	// Whoever fired the completion goes on after the spinner parks.
	e.depth++
	e.runCurrent(c)
	e.depth--
}
