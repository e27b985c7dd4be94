package sim

import "time"

// Event lifecycle states. Nodes cycle through the engine's free pool; the
// generation counter in Timer makes stale handles to recycled nodes inert.
const (
	evFree    uint8 = iota // in the free pool, awaiting reuse
	evPending              // queued in the calendar
)

// Event is a scheduled callback in virtual time. Events are ordered by time
// and, for equal times, by insertion sequence, which makes runs fully
// deterministic. Event nodes are pooled and recycled after firing; callers
// hold Timer handles, never *Event.
type Event struct {
	at    time.Duration
	seq   uint64
	fn    func()
	eng   *Engine
	gen   uint64 // bumped on every recycle; Timer handles check it
	state uint8
	index int // heap index in the calendar
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// valid and unarmed. Handles are generation-checked: once the event fires
// (or is cancelled) its node may be recycled for an unrelated event, and
// the stale handle turns into a no-op instead of cancelling a stranger.
type Timer struct {
	ev  *Event
	gen uint64
}

// Armed reports whether the event is still scheduled to fire.
func (tm Timer) Armed() bool {
	ev := tm.ev
	return ev != nil && ev.gen == tm.gen && ev.state == evPending
}

// Cancel prevents the event from firing. Cancelling an already-fired (or
// already-cancelled) event is a no-op. Unlike a lazy cancellation mark, the
// node is removed from its heap immediately, so re-arm loops (watchdogs,
// coalescing timers) cannot grow the queue without bound.
func (tm Timer) Cancel() {
	ev := tm.ev
	if ev == nil || ev.gen != tm.gen {
		return
	}
	ev.eng.cancelEvent(ev)
}

// At returns the virtual time the event is scheduled for (0 if the handle
// is stale or zero).
func (tm Timer) At() time.Duration {
	if tm.ev == nil || tm.ev.gen != tm.gen {
		return 0
	}
	return tm.ev.at
}
