package sim_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"aeolia/internal/sched"
	"aeolia/internal/sim"
)

// TestTaskPanicSurfacesFromRun: a panic in a task body arrives on Run's
// caller, naming the task and the virtual time, with the body's own value
// still reachable.
func TestTaskPanicSurfacesFromRun(t *testing.T) {
	errBoom := errors.New("boom")
	e := sim.NewEngine(1, sched.NewEEVDF())
	defer e.Shutdown()
	e.Spawn("bystander", e.Core(0), func(env *sim.Env) { env.Exec(time.Millisecond) })
	e.Spawn("culprit", e.Core(0), func(env *sim.Env) {
		env.Exec(3 * time.Microsecond)
		panic(errBoom)
	})

	var got any
	func() {
		defer func() { got = recover() }()
		e.Run(0)
	}()
	tp, ok := got.(*sim.TaskPanic)
	if !ok {
		t.Fatalf("Run panicked with %T (%v), want *sim.TaskPanic", got, got)
	}
	if tp.Task != "culprit" || tp.At == 0 || tp.Value != errBoom {
		t.Fatalf("TaskPanic{Task: %q, At: %v, Value: %v}, want the culprit, a time and errBoom", tp.Task, tp.At, tp.Value)
	}
	if !errors.Is(tp, errBoom) {
		t.Fatal("errors.Is does not see the body's error through TaskPanic")
	}
	var same *sim.TaskPanic
	if !errors.As(error(tp), &same) || same != tp {
		t.Fatal("errors.As does not find the TaskPanic")
	}
	if msg := tp.Error(); !strings.Contains(msg, `"culprit"`) || !strings.Contains(msg, "boom") || !strings.Contains(msg, "coro_test.go") {
		t.Fatalf("message does not name the task, the value and the body's stack:\n%s", msg)
	}
}

// TestShutdownLeavesNoGoroutines: whatever a task was doing when the engine
// is shut down, nothing of it is left running — its deferred functions ran
// (even one that parks again), and a task that was never dispatched never
// starts.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	e := sim.NewEngine(2, sched.NewEEVDF())
	never := sim.NewCompletion()
	unwound := map[string]bool{}
	spawn := func(name string, core int, body func(env *sim.Env)) {
		e.Spawn(name, e.Core(core), func(env *sim.Env) {
			defer func() { unwound[name] = true }()
			body(env)
		})
	}
	spawn("exec", 0, func(env *sim.Env) { env.Exec(time.Hour) })
	spawn("blockon", 0, func(env *sim.Env) { env.BlockOn(never) })
	spawn("sleep", 0, func(env *sim.Env) { env.Sleep(time.Hour) })
	spawn("spin", 1, func(env *sim.Env) { env.SpinWait(sim.NewCompletion()) })
	spawn("parks-in-defer", 1, func(env *sim.Env) {
		defer env.Exec(time.Microsecond)
		defer env.Block()
		env.Block()
	})
	finished := false
	spawn("finishes", 1, func(env *sim.Env) { finished = true })
	e.Run(100 * time.Millisecond)
	if !finished {
		t.Fatal("the short task did not finish")
	}
	started := false
	e.Spawn("never-dispatched", e.Core(0), func(env *sim.Env) { started = true })
	if runtime.NumGoroutine() <= before {
		t.Fatal("parked tasks hold no goroutines: the test measures nothing")
	}

	e.Shutdown()
	for _, name := range []string{"exec", "blockon", "sleep", "spin", "parks-in-defer", "finishes"} {
		if !unwound[name] {
			t.Errorf("task %q: deferred function did not run", name)
		}
	}
	if started {
		t.Error("a task that was never dispatched ran its body at Shutdown")
	}
	// A finished coroutine's goroutine exits on its own, just after the
	// switch back that Shutdown returned from.
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Shutdown, %d before the engine", n, before)
	}
	e.Shutdown() // idempotent
}

// TestIRQCtxKeptPastReturnPanics: the context lives in the core's recycled
// IRQ frame, so a handler that keeps it and uses it later must be told.
func TestIRQCtxKeptPastReturnPanics(t *testing.T) {
	e := sim.NewEngine(1, nil)
	var kept *sim.IRQCtx
	e.Core(0).SetIRQHandler(func(ctx *sim.IRQCtx, _ int) {
		ctx.Charge(time.Microsecond) // fine: the handler is running
		kept = ctx
	})
	e.Schedule(0, func() { e.Core(0).RaiseIRQ(1) })
	e.Run(0)

	for name, use := range map[string]func(){
		"Charge":  func() { kept.Charge(time.Microsecond) },
		"Now":     func() { kept.Now() },
		"Core":    func() { kept.Core() },
		"Engine":  func() { kept.Engine() },
		"Current": func() { kept.Current() },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "after its interrupt handler returned") {
					t.Errorf("%s on a kept IRQCtx: recovered %v, want the retention panic", name, r)
				}
			}()
			use()
		}()
	}
}
