package cluster

import (
	"aeolia/internal/netsim"
	"aeolia/internal/sim"
)

// Monitor is the control-plane map service: it owns the osd/pg map, answers
// map queries, and absorbs leadership reports from nodes so clients joining
// (or retrying after repeated timeouts) start at the current leader instead
// of probing the whole group. It is deliberately NOT on the data path — a
// write never waits on the monitor.
type Monitor struct {
	c  *Cluster
	ep *netsim.Endpoint

	// leaders[pg] is the last reported leader (None before the first
	// report); terms[pg] orders reports so a stale one cannot regress the
	// hint.
	leaders []int
	terms   []uint64

	// Stats.
	MapQueries, Reports uint64
}

func newMonitor(c *Cluster) *Monitor {
	m := &Monitor{c: c, ep: c.Fab.Endpoint("mon")}
	m.ep.BindCore(c.M.Eng.Core(c.cfg.Nodes))
	m.leaders = make([]int, c.cfg.PGs)
	m.terms = make([]uint64, c.cfg.PGs)
	for i := range m.leaders {
		m.leaders[i] = -1
	}
	return m
}

func (m *Monitor) run(env *sim.Env) {
	for {
		msg := m.ep.TryRecv()
		if msg == nil {
			if m.c.stopped {
				return
			}
			c := m.ep.Arrival()
			if m.ep.Pending() > 0 || m.c.stopped {
				continue
			}
			env.BlockOn(c)
			continue
		}
		env.Exec(netsim.RxCost)
		switch {
		case len(msg.Payload) > 0 && msg.Payload[0] == magicMonReq:
			m.MapQueries++
			resp := monResp{RF: m.c.cfg.RF, Members: m.c.members, Leaders: m.leaders}
			if err := m.ep.Send(env, msg.Src, resp.encode()); err != nil {
				// Control-plane replies are best-effort; the client retries.
				continue
			}
		case len(msg.Payload) > 0 && msg.Payload[0] == magicMonReport:
			r, err := decodeMonReport(msg.Payload)
			if err != nil {
				continue
			}
			m.Reports++
			pg := int(r.PG)
			if pg < len(m.terms) && r.Term >= m.terms[pg] {
				m.terms[pg] = r.Term
				m.leaders[pg] = int(r.Leader)
			}
		}
	}
}
