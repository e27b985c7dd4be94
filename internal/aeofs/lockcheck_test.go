package aeofs

import (
	"fmt"
	"strings"
	"testing"

	"aeolia/internal/sched"
	"aeolia/internal/sim"
)

// The lock-order assertion must accept the documented hierarchy
// (budgetMu → rangeLock → treeLock) and panic on each inversion. Both
// directions are covered per lock pair so a regression in either the
// checker or a call site's ordering fails loudly.

func lockRig(t *testing.T) *sim.Engine {
	t.Helper()
	eng := sim.NewEngine(1, sched.NewEEVDF())
	t.Cleanup(eng.Shutdown)
	return eng
}

// runLockSeq executes body as one task and returns the recovered panic
// message ("" if none).
func runLockSeq(t *testing.T, body func(env *sim.Env)) string {
	t.Helper()
	eng := lockRig(t)
	var msg string
	eng.Spawn("locks", eng.Core(0), func(env *sim.Env) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		body(env)
	})
	eng.Run(0)
	return msg
}

func TestLockOrderAssertion(t *testing.T) {
	SetLockOrderCheck(true)
	defer SetLockOrderCheck(false)

	t.Run("in-order-clean", func(t *testing.T) {
		bm := &ordMutex{lvl: levelBudget}
		tm := &ordMutex{lvl: levelTree}
		var rl rangeLock
		msg := runLockSeq(t, func(env *sim.Env) {
			bm.Lock(env)
			rl.Lock(env, 0, 4, false)
			tm.Lock(env)
			tm.Unlock(env)
			rl.Unlock(env, 0, 4, false)
			bm.Unlock(env)
			// Dropping back down and re-acquiring upward is also legal.
			rl.Lock(env, 2, 3, true)
			rl.Unlock(env, 2, 3, true)
		})
		if msg != "" {
			t.Fatalf("in-order acquisition panicked: %s", msg)
		}
	})

	inversions := []struct {
		name string
		body func(env *sim.Env, bm, tm *ordMutex, rl *rangeLock)
	}{
		{"range-then-budget", func(env *sim.Env, bm, _ *ordMutex, rl *rangeLock) {
			rl.Lock(env, 0, 1, true)
			defer rl.Unlock(env, 0, 1, true)
			bm.Lock(env)
		}},
		{"tree-then-budget", func(env *sim.Env, bm, tm *ordMutex, _ *rangeLock) {
			tm.Lock(env)
			defer tm.Unlock(env)
			bm.Lock(env)
		}},
		{"tree-then-range", func(env *sim.Env, _, tm *ordMutex, rl *rangeLock) {
			tm.Lock(env)
			defer tm.Unlock(env)
			rl.Lock(env, 0, 1, false)
		}},
	}
	for _, tc := range inversions {
		t.Run(tc.name, func(t *testing.T) {
			bm := &ordMutex{lvl: levelBudget}
			tm := &ordMutex{lvl: levelTree}
			var rl rangeLock
			msg := runLockSeq(t, func(env *sim.Env) { tc.body(env, bm, tm, &rl) })
			if !strings.Contains(msg, "lock-order violation") {
				t.Fatalf("inversion %s did not trip the assertion (got %q)", tc.name, msg)
			}
		})
	}
}

// TestLockOrderCheckOff verifies the assertion is inert when disabled — the
// production configuration must pay only the flag test.
func TestLockOrderCheckOff(t *testing.T) {
	SetLockOrderCheck(false)
	bm := &ordMutex{lvl: levelBudget}
	tm := &ordMutex{lvl: levelTree}
	msg := runLockSeq(t, func(env *sim.Env) {
		tm.Lock(env)
		bm.Lock(env) // inverted, but the checker is off
		bm.Unlock(env)
		tm.Unlock(env)
	})
	if msg != "" {
		t.Fatalf("disabled checker panicked: %s", msg)
	}
}
