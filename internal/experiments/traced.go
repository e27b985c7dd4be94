package experiments

import (
	"fmt"

	"aeolia/internal/trace"
)

// tracedCell is one traced cell as a figure's Trace checks read it: the
// event stream, how many events the rings dropped, and the analyzer's replay.
// The checks are pure functions of a tracedCell and the cell's own counters,
// so a test can hand them a doctored stream.
type tracedCell struct {
	name    string
	evs     []trace.Event
	dropped uint64
	an      *trace.Analyzer
}

func newTracedCell(name string, evs []trace.Event, dropped uint64) *tracedCell {
	return &tracedCell{name: name, evs: evs, dropped: dropped, an: trace.Analyze(evs)}
}

func captured(name string, tr *trace.Tracer) *tracedCell {
	return newTracedCell(name, tr.Events(), tr.Dropped())
}

// count returns how many events of one type the cell traced.
func (c *tracedCell) count(typ trace.Type) (n uint64) {
	for _, e := range c.evs {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// clean is the check every traced cell makes first: the stream is non-empty
// and whole, it holds every event type in want (an invariant over events
// that never occurred holds vacuously), and the analyzer found no violation.
func (c *tracedCell) clean(want ...trace.Type) error {
	if len(c.evs) == 0 {
		return fmt.Errorf("%s: traced cell emitted no events", c.name)
	}
	if c.dropped != 0 {
		return fmt.Errorf("%s: trace ring dropped %d events", c.name, c.dropped)
	}
	for _, typ := range want {
		if c.count(typ) == 0 {
			return fmt.Errorf("%s: no %v events in the traced cell", c.name, typ)
		}
	}
	if n := len(c.an.Violations); n != 0 {
		return fmt.Errorf("%s: %d trace invariant violation(s); first %d: %v",
			c.name, n, min(n, 10), c.an.Violations[:min(n, 10)])
	}
	return nil
}

// svcChainsComplete requires the cell to have traced service requests and
// every one of them end to end: recv → admit → fs-op → reply, or recv →
// reply for a shed one.
func (c *tracedCell) svcChainsComplete() error {
	if len(c.an.SvcChains) == 0 {
		return fmt.Errorf("%s: no service chains in the trace", c.name)
	}
	for _, ch := range c.an.SvcChains {
		if !ch.Complete() {
			return fmt.Errorf("%s: incomplete service chain %+v", c.name, *ch)
		}
	}
	return nil
}
