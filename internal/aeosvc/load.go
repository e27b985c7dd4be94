package aeosvc

import (
	"fmt"
	"time"

	"aeolia/internal/sim"
	"aeolia/internal/workload"
)

// LoadSpec drives a fleet of closed-loop clients against a running service
// and merges their measurements into a workload.Result. It lives beside the
// Client it drives, so internal/workload knows nothing of the service.
type LoadSpec struct {
	Eng     *sim.Engine
	Clients []*Client
	// CoreFor places client i's task.
	CoreFor func(i int) *sim.Core
	// Horizon bounds the run in virtual time (required: the dispatcher's
	// active checking keeps the event queue alive).
	Horizon time.Duration
	// Stop quiesces the service once every client finished (before the
	// final drain slice).
	Stop func()
}

// Run spawns the clients, drives the engine in slices until all complete
// (or the horizon expires), stops the service, and merges the results.
func (s *LoadSpec) Run() (*workload.Result, []*ClientResult, error) {
	n := len(s.Clients)
	errs := make([]error, n)
	remaining := n
	for i, c := range s.Clients {
		i, c := i, c
		s.Eng.Spawn(fmt.Sprintf("svc-client-%d", i), s.CoreFor(i), func(env *sim.Env) {
			errs[i] = c.Run(env)
			remaining--
		})
	}
	horizon := s.Horizon
	if horizon == 0 {
		horizon = time.Hour
	}
	deadline := s.Eng.Now() + horizon
	for remaining > 0 && s.Eng.Now() < deadline {
		next := s.Eng.Now() + 50*time.Millisecond
		if next > deadline {
			next = deadline
		}
		s.Eng.Run(next)
	}
	if remaining > 0 {
		return nil, nil, fmt.Errorf("aeosvc: %d client(s) did not finish before the horizon", remaining)
	}
	if s.Stop != nil {
		s.Stop()
		s.Eng.Run(s.Eng.Now() + time.Millisecond)
	}
	merged := &workload.Result{Name: "svc"}
	out := make([]*ClientResult, n)
	var start, end time.Duration
	for i, c := range s.Clients {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		r := &c.Result
		out[i] = r
		merged.Ops += r.Ops
		merged.Bytes += r.Bytes
		for _, d := range r.Samples {
			merged.Latency.Record(d)
		}
		if i == 0 || r.Start < start {
			start = r.Start
		}
		if r.End > end {
			end = r.End
		}
	}
	merged.Elapsed = end - start
	return merged, out, nil
}
