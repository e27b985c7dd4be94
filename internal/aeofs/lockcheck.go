package aeofs

import (
	"fmt"

	"aeolia/internal/sim"
)

// Lock-order assertion for the page-cache locking hierarchy. The mount-wide
// order is
//
//	budgetMu (1) → rangeLock (2) → treeLock (3)
//
// — a task holding a lower-numbered lock may acquire a higher-numbered one,
// never the reverse. The checker is debug-build machinery: off by default
// (one bool test per acquisition), switched on by tests via
// SetLockOrderCheck, and panicking on the first out-of-order acquisition so
// a regression points at the exact call site instead of at an eventual
// deadlock.

// lockLevel numbers the hierarchy; higher acquires later.
type lockLevel int

const (
	levelBudget lockLevel = 1 + iota
	levelRange
	levelTree
)

func (l lockLevel) String() string {
	switch l {
	case levelBudget:
		return "budgetMu"
	case levelRange:
		return "rangeLock"
	case levelTree:
		return "treeLock"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// lockCheckOn and the held-lock registry are package state shared by every
// engine in the process. They are test-only: a test switches the check on
// before any engine runs, and every engine runs on its test's goroutine.
var lockCheckOn bool
var lockHeld = map[*sim.Task][]lockLevel{}

// SetLockOrderCheck switches the debug lock-order assertion on or off and
// clears the registry. Tests only.
func SetLockOrderCheck(on bool) {
	lockHeld = map[*sim.Task][]lockLevel{}
	lockCheckOn = on
}

// lockAcquire records the intent to take a lock of level l, panicking if the
// task already holds one of an equal or higher level. Asserting before the
// (possibly parking) acquisition reports inversions that would otherwise
// only surface as rare deadlocks.
func lockAcquire(t *sim.Task, l lockLevel) {
	if !lockCheckOn || t == nil {
		return
	}
	for _, held := range lockHeld[t] {
		if held >= l {
			panic(fmt.Sprintf("aeofs: lock-order violation: acquiring %v while holding %v (order: budgetMu → rangeLock → treeLock)", l, held))
		}
	}
	lockHeld[t] = append(lockHeld[t], l)
}

// lockRelease removes one held level from the task's record.
func lockRelease(t *sim.Task, l lockLevel) {
	if !lockCheckOn || t == nil {
		return
	}
	held := lockHeld[t]
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == l {
			held = append(held[:i], held[i+1:]...)
			break
		}
	}
	if len(held) == 0 {
		delete(lockHeld, t)
	} else {
		lockHeld[t] = held
	}
}

// ordMutex wraps sim.Mutex with a lock-order level. The zero value is
// unusable — constructors must set lvl.
type ordMutex struct {
	mu  sim.Mutex
	lvl lockLevel
}

func (m *ordMutex) Lock(env *sim.Env) {
	lockAcquire(env.Task(), m.lvl)
	m.mu.Lock(env)
}

func (m *ordMutex) Unlock(env *sim.Env) {
	m.mu.Unlock(env)
	lockRelease(env.Task(), m.lvl)
}
