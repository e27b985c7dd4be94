package sim_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"aeolia/internal/sim"
	"aeolia/internal/timing"
)

// An Exec that nothing can interrupt runs inline (Engine.execInline): no
// park, no exec-done event. A no-op sim.Trace shuts that path, so every test
// here plays one scenario both ways and requires the same virtual outcome.

// world is one run of a scenario: its engine, the tasks whose books are
// compared, and what its callbacks and bodies noted on the way.
type world struct {
	e     *sim.Engine
	tasks []*sim.Task
	log   []string
}

func (w *world) spawn(name string, core int, body func(*sim.Env)) *sim.Task {
	tk := w.e.Spawn(name, w.e.Core(core), body)
	w.tasks = append(w.tasks, tk)
	return tk
}

// note records what happened at the current virtual time.
func (w *world) note(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.e.Now())+fmt.Sprintf(format, args...))
}

// summary is everything virtual a run leaves behind.
func (w *world) summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "now %v\n", w.e.Now())
	for _, tk := range w.tasks {
		fmt.Fprintf(&b, "%s: finished %v cpu %v\n", tk.Name, tk.FinishedAt, tk.CPUTime)
	}
	for _, c := range w.e.Cores() {
		fmt.Fprintf(&b, "core%d: idle %v switches %d irqs %d preempts %d\n",
			c.ID, c.IdleTime, c.SwitchCount, c.IRQCount, c.PreemptCount)
	}
	for _, l := range w.log {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// bothPaths plays scenario with the inline path open and then with it shut,
// fails unless both runs leave the same summary, and returns their engine
// counters.
func bothPaths(t *testing.T, cores int, scenario func(w *world)) (fast, slow sim.EngineStats) {
	t.Helper()
	play := func() (string, sim.EngineStats) {
		w := &world{e: newEngine(t, cores)}
		scenario(w)
		return w.summary(), w.e.Stats()
	}
	fastSum, fast := play()
	sim.Trace = func(string, ...any) {}
	defer func() { sim.Trace = nil }()
	slowSum, slow := play()
	if fastSum != slowSum {
		t.Fatalf("inline and parked runs differ\n--- inline ---\n%s--- parked ---\n%s", fastSum, slowSum)
	}
	if fast.InlineExecs == 0 {
		t.Fatal("no Exec ran inline: the scenario compares nothing")
	}
	if slow.InlineExecs != 0 {
		t.Fatalf("%d Execs ran inline under sim.Trace", slow.InlineExecs)
	}
	if fast.SerialEvents >= slow.SerialEvents {
		t.Fatalf("inline run fired %d events, parked run %d: want fewer", fast.SerialEvents, slow.SerialEvents)
	}
	return fast, slow
}

// Two cores, each with something to interrupt: timers and interrupts that
// land mid-Exec, scheduler ticks between tasks sharing core 0, wakes from
// inside a body (one of them owing a preemption on its own core), spinners released from an event callback and from a
// zero-cost interrupt that have more to do after the release, and a run in
// slices whose horizons cut Execs.
func TestExecInlineMatchesParked(t *testing.T) {
	const (
		vecCharged = 1 // charges its handler and fires what waits on it
		vecFree    = 2 // charges nothing
	)
	bothPaths(t, 2, func(w *world) {
		e := w.e
		c0, c1 := e.Core(0), e.Core(1)
		var irqComp, freeComp, cbComp sim.Completion
		var sleeper, napper *sim.Task
		c0.SetIRQHandler(func(ctx *sim.IRQCtx, vec int) {
			if vec == vecCharged {
				ctx.Charge(timing.UserInterrupt)
			}
			irqComp.FireAt(ctx.Now())
		})
		c1.SetIRQHandler(func(ctx *sim.IRQCtx, vec int) {
			if vec == vecCharged {
				ctx.Charge(timing.KernelInterrupt)
				ctx.Engine().Wake(sleeper)
				return
			}
			freeComp.FireAt(ctx.Now())
		})
		raise0 := func() { c0.RaiseIRQ(vecCharged) }

		w.spawn("compute", 0, func(env *sim.Env) {
			for i := 0; i < 40; i++ {
				switch {
				case i%7 == 3:
					irqComp = sim.Completion{}
					env.Schedule(1500*time.Nanosecond, raise0)
					env.Exec(time.Microsecond)
					env.SpinWait(&irqComp)
					w.note("compute spun out %d", i)
				case i%5 == 1:
					// Lands in the middle of the next Exec.
					env.Schedule(700*time.Nanosecond, raise0)
				case i%3 == 0:
					e.Wake(sleeper)
					e.Wake(napper) // same core: may owe a preemption at the next Exec
				}
				env.Exec(time.Duration(300+i*137) * time.Nanosecond)
				if i%10 == 9 {
					env.Exec(1500 * time.Microsecond) // long enough to meet ticks
				}
			}
			w.note("compute done")
		})
		w.spawn("rival", 0, func(env *sim.Env) {
			for i := 0; i < 6; i++ {
				env.Exec(1200 * time.Microsecond)
				env.Sleep(50 * time.Microsecond)
			}
			w.note("rival done")
		})
		napper = w.spawn("napper", 0, func(env *sim.Env) {
			for i := 0; i < 5; i++ {
				env.Block()
				env.Exec(3 * time.Microsecond)
				w.note("napper woke %d", i)
			}
		})
		sleeper = w.spawn("sleeper", 1, func(env *sim.Env) {
			for i := 0; i < 8; i++ {
				env.Block()
				env.Exec(2 * time.Microsecond)
				w.note("sleeper woke %d", i)
			}
		})
		spinner := w.spawn("spinner", 1, func(env *sim.Env) {
			for i := 0; i < 30; i++ {
				if i%2 == 0 {
					cbComp = sim.Completion{}
					env.SpinWait(&cbComp)
				} else {
					freeComp = sim.Completion{}
					env.SpinWait(&freeComp)
				}
				env.Exec(900 * time.Nanosecond)
				env.Exec(400 * time.Nanosecond)
			}
			w.note("spinner done")
		})

		// An outside source: until the spinner is done it releases it, by a
		// completion or by a free interrupt, and reads the clock after each
		// release.
		n := 0
		var pulse func()
		pulse = func() {
			if n%2 == 0 {
				cbComp.FireAt(e.Now())
				w.note("pulse fired %d", n)
			} else {
				c1.RaiseIRQ(vecFree)
				w.note("pulse raised %d", n)
			}
			c1.RaiseIRQ(vecCharged)
			if n++; spinner.State() != sim.TaskDone {
				e.Schedule(13*time.Microsecond, pulse)
			}
		}
		e.Schedule(5*time.Microsecond, pulse)

		for i := 0; i < 400 && e.LiveTasks() > 1; i++ {
			e.Run(e.Now() + 7777*time.Nanosecond)
			w.note("horizon: compute cpu %v, spinner cpu %v", w.tasks[0].CPUTime, spinner.CPUTime)
		}
		e.Run(0)
	})
}

// A timer due exactly when an Exec ends was scheduled before the exec-done
// event would be, so it fires first.
func TestExecInlineTimerAtSliceEndFiresFirst(t *testing.T) {
	bothPaths(t, 1, func(w *world) {
		e := w.e
		w.spawn("worker", 0, func(env *sim.Env) {
			env.Exec(time.Microsecond) // nothing due: inline
			env.Schedule(2*time.Microsecond, func() { w.note("timer") })
			env.Exec(2 * time.Microsecond)
			w.note("exec returned")
		})
		e.Run(0)
		if len(w.log) != 2 || !strings.HasSuffix(w.log[0], "timer") {
			t.Fatalf("log = %q, want the timer before the Exec returns", w.log)
		}
	})
}

// uFS's shape: a client body fires the signal a worker on another core
// spins on, so the worker's body runs inside the client's; each then
// execs on its own core. Only the outermost body may run an Exec inline.
func TestExecInlineNestedBodies(t *testing.T) {
	bothPaths(t, 2, func(w *world) {
		e := w.e
		var queue []*sim.Completion
		signal := new(sim.Completion)
		w.spawn("worker", 1, func(env *sim.Env) {
			for served := 0; served < 50; {
				if len(queue) == 0 {
					signal = new(sim.Completion)
					env.SpinWait(signal)
					continue
				}
				done := queue[0]
				queue = queue[1:]
				env.Exec(timing.IPC * 3)
				w.note("served %d", served)
				served++
				done.Fire()
			}
		})
		w.spawn("client", 0, func(env *sim.Env) {
			for i := 0; i < 50; i++ {
				env.Exec(timing.IPC)
				done := new(sim.Completion)
				queue = append(queue, done)
				signal.Fire()
				env.SpinWait(done)
				env.Exec(timing.IPC / 2)
				w.note("reply %d", i)
			}
		})
		e.Run(0)
	})
}
