package aeofs

import (
	"errors"

	"aeolia/internal/sim"
)

// Background write-back: a flusher thread on a simulated core (like the
// service workers) that wakes when dirty bytes cross the high-water mark
// or on a periodic timer, writes contiguous dirty runs through the same
// batched-submission path fsync uses, and releases writers blocked on the
// dirty hard limit.

// ensureFlusher spawns the flusher task on its configured core the first
// time dirt appears. Engine context (no parking).
func (cm *cacheManager) ensureFlusher() {
	if cm.flusherOn || cm.wbDead || !cm.cfg.writebackEnabled() {
		return
	}
	cm.flusherOn = true
	cores := cm.eng.Cores()
	core := cores[cm.cfg.FlusherCore%len(cores)]
	cm.eng.Spawn("aeofs-flusher", core, cm.flusherLoop)
}

// flusherLoop is the flusher task body. It parks on cm.wake whenever the
// dirty set is empty — never holding a pending timer event — so Engine.Run
// still terminates when the workload drains. It exits (wbDead) on injected
// crashes, releasing any throttled writers.
func (cm *cacheManager) flusherLoop(env *sim.Env) {
	defer func() {
		cm.wbDead = true
		cm.throttle.Broadcast(cm.eng)
	}()
	if _, err := cm.fs.drv.CreateQP(env); err != nil {
		return
	}
	for {
		for cm.dirty.Load() == 0 {
			cm.wake.Wait(env)
		}
		if cm.fs.Trust.Crashed() {
			return
		}
		// Below the high-water mark there is no urgency: let the
		// periodic interval pass so more dirt coalesces into runs.
		if cm.cfg.DirtyHighWater == 0 || cm.dirty.Load() < cm.cfg.DirtyHighWater {
			env.Sleep(cm.cfg.FlushInterval)
			if cm.dirty.Load() == 0 {
				continue
			}
		}
		if err := cm.flushPass(env); err != nil {
			return
		}
	}
}

// flushPass writes back every file's dirty pages, one vectored batch per
// file, broadcasting to throttled writers as dirt drains. Only an
// injected crash stops the pass (and kills the flusher). A file whose
// write-back fails gives up the attempted pages, so the dirty set cannot
// wedge the mount, and keeps the error for its next fsync, as Linux's
// errseq does: the data is lost, but loudly.
func (cm *cacheManager) flushPass(env *sim.Env) error {
	files := append([]*pageCache(nil), cm.files...)
	for _, f := range files {
		if cm.fs.Trust.Crashed() {
			return ErrCrashInjected
		}
		dirty := f.dirtyPages(env)
		if len(dirty) == 0 {
			continue
		}
		err := cm.fs.writebackPages(env, f.owner, dirty, true)
		if err != nil {
			if errors.Is(err, ErrCrashInjected) {
				return err
			}
			cm.wbErrors.Add(1)
			if f.owner.wbErr == nil {
				f.owner.wbErr = err
			}
			cm.abandon(env, f, dirty)
		}
		cm.throttle.Broadcast(cm.eng)
	}
	return nil
}

// abandon cleans the pages a failed background write-back attempted, so
// the flusher does not spin on a file it can never write again (e.g. a
// revoked grant after close). Their data stays resident until evicted.
func (cm *cacheManager) abandon(env *sim.Env, f *pageCache, idxs []uint64) {
	f.treeLock.Lock(env)
	for _, idx := range idxs {
		if v := f.tree.Get(idx); v != nil {
			if cp := v.(*cachePage); cp.state == dirty {
				cp.to(cm, clean)
			}
		}
	}
	f.treeLock.Unlock(env)
}
