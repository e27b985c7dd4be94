package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// calModel drives one randomized schedule/cancel/pop workload against the
// calendar and a reference flat list, checking that every pop agrees with
// the reference's (at, seq) minimum.
type calModel struct {
	t   *testing.T
	cal calendar
	ref []*Event // mirror of everything pending in cal
	seq uint64
}

// refMin returns the index of the reference's (at, seq) minimum.
func (m *calModel) refMin() int {
	best := -1
	for i, ev := range m.ref {
		if best < 0 || ev.at < m.ref[best].at ||
			(ev.at == m.ref[best].at && ev.seq < m.ref[best].seq) {
			best = i
		}
	}
	return best
}

func (m *calModel) refDelete(i int) {
	m.ref[i] = m.ref[len(m.ref)-1]
	m.ref = m.ref[:len(m.ref)-1]
}

// step applies one encoded operation. The word picks the op and the
// timestamp; timestamps are drawn from a small space so equal-(at) ties are
// common.
func (m *calModel) step(w uint32) bool {
	op := w & 3
	at := time.Duration((w>>8)%64) * time.Microsecond
	switch op {
	case 0, 1: // schedule
		m.seq++
		ev := &Event{at: at, seq: m.seq, state: evPending}
		m.cal.push(ev)
		m.ref = append(m.ref, ev)
	case 2: // cancel a random pending event
		if len(m.ref) == 0 {
			return true
		}
		i := int((w >> 8) % uint32(len(m.ref)))
		m.cal.remove(m.ref[i])
		m.refDelete(i)
	case 3: // pop the global minimum
		want := m.refMin()
		got := m.cal.pop()
		if want < 0 {
			if got != nil {
				m.t.Errorf("pop from empty calendar returned (at=%v seq=%d)", got.at, got.seq)
				return false
			}
			return true
		}
		if got != m.ref[want] {
			m.t.Errorf("pop = (at=%v seq=%d), reference min = (at=%v seq=%d)",
				got.at, got.seq, m.ref[want].at, m.ref[want].seq)
			return false
		}
		m.refDelete(want)
	}
	return true
}

// drain pops everything left, still checking against the reference.
func (m *calModel) drain() bool {
	for len(m.ref) > 0 {
		if !m.step(3) {
			return false
		}
	}
	if got := m.cal.pop(); got != nil {
		m.t.Errorf("calendar still had (at=%v seq=%d) after reference drained", got.at, got.seq)
		return false
	}
	return true
}

// TestCalendarDifferentialQuick is the differential property test of the
// calendar: any randomized schedule/cancel/pop workload must pop in exactly
// the reference single-list (at, seq) order.
func TestCalendarDifferentialQuick(t *testing.T) {
	prop := func(ops []uint32) bool {
		m := &calModel{t: t}
		for _, w := range ops {
			if !m.step(w) {
				return false
			}
		}
		return m.drain()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelBoundsQueueLength is the regression test for the
// cancel-leaves-garbage bug: Timer.Cancel must heap.Remove the node (and
// return it to the pool), so a re-arm loop — the watchdog pattern — keeps
// the queue at O(1), not O(re-arms).
func TestCancelBoundsQueueLength(t *testing.T) {
	e := NewEngine(0, nil)
	const rearms = 10000
	fired := 0
	var tm Timer
	for i := 1; i <= rearms; i++ {
		tm.Cancel() // no-op on the zero Timer, removal afterwards
		tm = e.Schedule(time.Duration(i)*time.Microsecond, func() { fired++ })
	}
	if n := e.cal.len(); n > 1 {
		t.Fatalf("queue holds %d events after %d re-arms, want 1 (cancel must remove)", n, rearms)
	}
	st := e.Stats()
	if st.PoolHits < rearms-10 {
		t.Fatalf("pool hits = %d after %d re-arms, want ~all (cancel must recycle)", st.PoolHits, rearms)
	}
	e.Run(0)
	if fired != 1 {
		t.Fatalf("%d timers fired, want exactly the live one", fired)
	}
}
