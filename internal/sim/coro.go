//go:build go1.23

package sim

import (
	"iter"
	"runtime/debug"
)

// A task body is a coroutine of whoever dispatches it (the engine goroutine,
// or a lane goroutine inside a parallel window): iter.Pull gives it a stack
// of its own and makes every handoff a direct switch on the calling thread,
// with no channel, no scheduler wake-up and no second runnable goroutine. The
// coroutine ends when the body returns, so there is nothing to pool and
// nothing to retire. iter is Go 1.23's; go.mod stays at 1.22 because the
// benchmark module requires this one at that version, hence the build tag
// and no fallback file.

// start creates t's coroutine. The body begins on the first resume.
func (t *Task) start() {
	t.next, t.stop = iter.Pull(t.run)
}

// run is the coroutine: the task body, then the opDone park that never
// returns. A body panic leaves as a *TaskPanic, which iter.Pull re-raises
// in the resume that was running the body — that is, out of Engine.Run.
func (t *Task) run(yield func(struct{}) bool) {
	t.yield = yield
	defer func() {
		switch r := recover(); r {
		case nil, errAborted: // errAborted: Shutdown unwinding a parked body
		default:
			panic(&TaskPanic{Task: t.Name, At: t.affinity.now(), Value: r, Stack: debug.Stack()})
		}
	}()
	t.body(&Env{t: t})
	t.op = opDone
}

// park switches back to whoever resumed the task and returns when the task
// is resumed again. After Shutdown's stop it unwinds the body instead, and
// keeps doing so if a deferred function of the body parks again.
func (t *Task) park() {
	if !t.yield(struct{}{}) {
		panic(errAborted)
	}
}
