package rxport

import "aeolia/internal/sim"

// WaitOnArrival enters the port's guarded wait on its endpoint's arrival
// completion, for the external tests of its assertion.
func (p *Port) WaitOnArrival(env *sim.Env) { p.wait(env, p.ep.Arrival()) }
