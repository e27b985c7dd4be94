package sim_test

import (
	"testing"
	"time"

	"aeolia/internal/alloctest"
	"aeolia/internal/sim"
	"aeolia/internal/timing"
)

// The engine's steady state allocates nothing: every gate below runs one
// kind of event over and over on a warm engine and counts. step advances the
// engine by d of virtual time, which is a whole number of the cycles the
// test set up.
func step(e *sim.Engine, d time.Duration) func() {
	return func() { e.Run(e.Now() + d) }
}

func TestAllocsTimerFireAndRearm(t *testing.T) {
	e := sim.NewEngine(0, nil)
	var tick func()
	tick = func() { e.Schedule(time.Microsecond, tick) }
	tick()
	alloctest.AtMost(t, 0, 100, step(e, 100*time.Microsecond))
}

func TestAllocsTimerArmAndCancel(t *testing.T) {
	e := sim.NewEngine(0, nil)
	fn := func() { t.Error("cancelled timer fired") }
	alloctest.AtMost(t, 0, 1, func() { e.Schedule(time.Microsecond, fn).Cancel() })
}

// An Exec with nothing due before it ends runs inline, without parking.
func TestAllocsExecInline(t *testing.T) {
	e := newEngine(t, 1)
	e.Spawn("worker", e.Core(0), func(env *sim.Env) {
		for {
			env.Exec(time.Microsecond)
		}
	})
	// Long enough to cross scheduler ticks too.
	alloctest.AtMost(t, 0, 10_000, step(e, 10*time.Millisecond))
	if s := e.Stats(); s.InlineExecs < 10_000 {
		t.Fatalf("%d Execs ran inline, want at least 10000", s.InlineExecs)
	}
}

// A timer due mid-Exec makes every Exec park and resume on its exec-done
// event.
func TestAllocsExecPark(t *testing.T) {
	e := newEngine(t, 1)
	nop := func() {}
	e.Spawn("worker", e.Core(0), func(env *sim.Env) {
		for {
			env.Schedule(500*time.Nanosecond, nop)
			env.Exec(time.Microsecond)
		}
	})
	alloctest.AtMost(t, 0, 10_000, step(e, 10*time.Millisecond))
	if s := e.Stats(); s.InlineExecs != 0 {
		t.Fatalf("%d Execs ran inline: the gate measured the wrong path", s.InlineExecs)
	}
}

// irqLoop is a task whose every cycle arms an interrupt on its own core and
// then waits for comp by wait; the handler decides what the interrupt does.
func irqLoop(t *testing.T, handler func(task *sim.Task, comp *sim.Completion) sim.IRQHandler,
	wait func(env *sim.Env, comp *sim.Completion)) (*sim.Engine, *int) {
	e := newEngine(t, 1)
	c := e.Core(0)
	comp := new(sim.Completion)
	cycles := new(int)
	raise := func() { c.RaiseIRQ(7) }
	task := e.Spawn("waiter", c, func(env *sim.Env) {
		for {
			*comp = sim.Completion{}
			env.Schedule(2*time.Microsecond, raise)
			for !comp.Done() {
				wait(env, comp)
			}
			*cycles++
		}
	})
	c.SetIRQHandler(handler(task, comp))
	return e, cycles
}

func TestAllocsSpinWaitReleasedFromIRQ(t *testing.T) {
	e, cycles := irqLoop(t,
		func(_ *sim.Task, comp *sim.Completion) sim.IRQHandler {
			return func(ctx *sim.IRQCtx, _ int) {
				ctx.Charge(timing.UserInterrupt)
				comp.FireAt(ctx.Now())
			}
		},
		func(env *sim.Env, comp *sim.Completion) { env.SpinWait(comp) })
	alloctest.AtMost(t, 0, 1000, alloctest.More(cycles, 1000, step(e, 10*time.Microsecond)))
}

// The kernel path: the task blocks, the interrupt pushes the handler frame
// and wakes it, and the frame fires the completion when the task is switched
// back in — what aeodriver and rxport do for an out-of-schedule delivery.
func TestAllocsBlockOnAndKernelPathWake(t *testing.T) {
	e, cycles := irqLoop(t,
		func(task *sim.Task, comp *sim.Completion) sim.IRQHandler {
			frame := func() time.Duration {
				comp.Fire()
				return timing.HandlerExec
			}
			return func(ctx *sim.IRQCtx, _ int) {
				ctx.Charge(timing.KernelInterrupt + timing.WakeupTTWU)
				task.PushResumeHook(frame)
				ctx.Engine().Wake(task)
			}
		},
		func(env *sim.Env, comp *sim.Completion) { env.BlockOn(comp) })
	alloctest.AtMost(t, 0, 1000, alloctest.More(cycles, 1000, step(e, 10*time.Microsecond)))
}

func TestAllocsNestedIRQ(t *testing.T) {
	const lo, hi = 9, 3
	e := sim.NewEngine(1, nil)
	c := e.Core(0)
	c.SetIRQRank(func(vector int) int { return vector })
	c.SetIRQHandler(func(ctx *sim.IRQCtx, vector int) {
		ctx.Charge(2 * time.Microsecond)
		if vector == lo {
			// Nests while the low handler is still executing ...
			ctx.Core().RaiseIRQ(hi)
		}
	})
	raiseLo, raiseHi := func() { c.RaiseIRQ(lo) }, func() { c.RaiseIRQ(hi) }
	var cycle func()
	cycle = func() {
		c.Schedule(0, raiseLo)
		// ... and again while its charged time elapses.
		c.Schedule(time.Microsecond, raiseHi)
		c.Schedule(10*time.Microsecond, cycle)
	}
	cycle()
	alloctest.AtMost(t, 0, 100, step(e, time.Millisecond))
	if c.NestedIRQCount == 0 {
		t.Fatal("no interrupt nested: the gate measured nothing")
	}
}

// Resume hooks are consumed by index: a task that is delivered to over and
// over keeps pushing into the same array. (Consuming with s = s[1:] walked
// the array's base forward, so every push reallocated.)
func TestAllocsResumeHookCycles(t *testing.T) {
	e := newEngine(t, 1)
	ran := 0
	hook := func() time.Duration { ran++; return 0 }
	e.Spawn("hooked", e.Core(0), func(env *sim.Env) {
		for {
			env.Task().PushResumeHook(hook)
			env.Exec(time.Microsecond)
		}
	})
	alloctest.AtMost(t, 0, 10_000, step(e, 10*time.Millisecond))
	if ran < 10_000 {
		t.Fatalf("%d hooks ran, want at least 10000", ran)
	}
}

// A wait queue (and a mutex's or rwmutex's waiter list) hands over in place:
// taking the first waiter moves the rest down and keeps the array.
func TestAllocsWaitQueueSignal(t *testing.T) {
	e := newEngine(t, 1)
	var wq sim.WaitQueue
	woken := 0
	e.Spawn("sleeper", e.Core(0), func(env *sim.Env) {
		for {
			wq.Wait(env)
			woken++
		}
	})
	var signal func()
	signal = func() {
		wq.Signal(e)
		e.Schedule(10*time.Microsecond, signal)
	}
	e.Run(10 * time.Microsecond) // the sleeper is parked in its first Wait
	signal()
	alloctest.AtMost(t, 0, 100, step(e, time.Millisecond))
	if woken < 2000 {
		t.Fatalf("sleeper woke %d times, want at least 2000", woken)
	}
}
