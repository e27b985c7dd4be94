// Package faultinject is a seed-driven, deterministic fault-injection
// framework for the Aeolia reproduction. A Plan maps named fault sites (e.g.
// "dev:err:write", aeofs crash points) to Rules that decide, per occurrence,
// whether the fault fires. Decisions are pure functions of (seed, site,
// occurrence index), so a firing schedule is reproducible from the seed alone
// and independent of how sites interleave across layers.
//
// The framework threads through the three layers where real hardware
// misbehaves:
//
//   - the NVMe device model: DeviceFaults implements nvme.Injector (command
//     status errors, torn partial writes, latency spikes), and TornResolver
//     resolves the device's volatile write cache at simulated power loss;
//   - UINTR delivery: NotifyFaults implements uintr.NotifyHook (dropped,
//     delayed, and duplicated notification interrupts);
//   - the AeoFS journal: Plan.CrashFunc drives the named crash points of
//     aeofs.CrashPoints.
//
// Production paths pay a single nil-check when no injector is installed.
package faultinject

import (
	"errors"
	"fmt"
	"strings"

	"aeolia/internal/mix"
)

// ErrFault marks any injected fault surfaced as an error (crash points).
var ErrFault = errors.New("faultinject: injected fault")

// Rule decides which occurrences of a site fire. Zero value never fires.
type Rule struct {
	// Prob is the per-occurrence firing probability in [0, 1], evaluated
	// against the deterministic draw for (seed, site, occurrence).
	Prob float64
	// Times lists explicit 1-based occurrence indices that always fire
	// (independent of Prob).
	Times []uint64
	// Max caps the total number of firings for the site (0 = unlimited).
	Max uint64
}

// Once fires on the first occurrence only.
func Once() Rule { return Rule{Times: []uint64{1}} }

// At fires on the n-th occurrence only (1-based).
func At(n uint64) Rule { return Rule{Times: []uint64{n}} }

// Always fires on every occurrence.
func Always() Rule { return Rule{Prob: 1} }

// WithProb fires each occurrence with probability p, at most max times
// (0 = unlimited).
func WithProb(p float64, max uint64) Rule { return Rule{Prob: p, Max: max} }

// Event records one firing, for reproduction logs.
type Event struct {
	Site       string
	Occurrence uint64
}

func (e Event) String() string { return fmt.Sprintf("%s@%d", e.Site, e.Occurrence) }

// Plan is a deterministic fault schedule. It is not safe for host-level
// concurrency, but the simulation engine serializes all task execution, so a
// single Plan may be shared by injectors across layers.
type Plan struct {
	seed  uint64
	rules map[string]Rule
	count map[string]uint64
	fired map[string]uint64
	log   []Event
}

// NewPlan creates an empty plan with the given seed. With no rules installed
// nothing ever fires.
func NewPlan(seed uint64) *Plan {
	return &Plan{
		seed:  seed,
		rules: make(map[string]Rule),
		count: make(map[string]uint64),
		fired: make(map[string]uint64),
	}
}

// On installs (replacing) the rule for a site and returns the plan for
// chaining.
func (p *Plan) On(site string, r Rule) *Plan {
	p.rules[site] = r
	return p
}

// draw returns the deterministic uniform draw for (seed, site, n).
func (p *Plan) draw(site string, n uint64) uint64 {
	return mix.SplitMix64(p.seed ^ mix.FNV1a64(site) ^ (n * 0x9E3779B97F4A7C15))
}

// Fire counts one occurrence of site and reports whether the installed rule
// fires on it.
func (p *Plan) Fire(site string) bool {
	p.count[site]++
	n := p.count[site]
	r, ok := p.rules[site]
	if !ok {
		return false
	}
	if r.Max > 0 && p.fired[site] >= r.Max {
		return false
	}
	fire := false
	for _, t := range r.Times {
		if t == n {
			fire = true
		}
	}
	if !fire && r.Prob > 0 {
		// 53-bit uniform in [0, 1).
		u := float64(p.draw(site, n)>>11) / (1 << 53)
		fire = u < r.Prob
	}
	if fire {
		p.fired[site]++
		p.log = append(p.log, Event{Site: site, Occurrence: n})
	}
	return fire
}

// Draw returns a deterministic auxiliary value for the site's current
// occurrence (e.g. how many bytes of a torn write survive). It does not
// advance the occurrence counter; successive calls at the same occurrence
// return the same value.
func (p *Plan) Draw(site string) uint64 {
	return p.draw("aux:"+site, p.count[site])
}

// Occurrences returns how many times site has been consulted.
func (p *Plan) Occurrences(site string) uint64 { return p.count[site] }

// Log returns the firing log in order.
func (p *Plan) Log() []Event { return append([]Event(nil), p.log...) }

// String renders the plan state as a one-line reproduction record:
// seed plus every firing. Printing it from a failing test is enough to
// rebuild the exact schedule with NewPlan(seed) and the same rules.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faultplan seed=%d", p.seed)
	if len(p.log) > 0 {
		evs := make([]string, len(p.log))
		for i, e := range p.log {
			evs[i] = e.String()
		}
		fmt.Fprintf(&b, " fired=[%s]", strings.Join(evs, " "))
	}
	return b.String()
}

// CrashFunc adapts the plan to the aeofs crash-point hook: consulting a
// site counts an occurrence, and a firing returns an error naming the site,
// occurrence, and seed so the crash is reproducible from the test log.
func (p *Plan) CrashFunc() func(site string) error {
	return func(site string) error {
		if !p.Fire(site) {
			return nil
		}
		return fmt.Errorf("%w: crash %q occurrence %d (seed %d)",
			ErrFault, site, p.count[site], p.seed)
	}
}
