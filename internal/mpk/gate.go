package mpk

import (
	"time"

	"aeolia/internal/sim"
	"aeolia/internal/timing"
)

// TrustedEntryCost is what one call into linked trusted entities charges:
// the paper's measured 40ns entry plus the WRPKRU pair that opens and closes
// the domain (2x48 cycles). DESIGN.md §4 records how this sits beside the
// paper's 85-cycle figure for the same switch.
const TrustedEntryCost = timing.TrustedEntry + 2*timing.WRPKRU

// Gate is the entry routine into a trusted entity (§5): it executes WRPKRU
// to open the entity's protection domain, switches to the trusted stack,
// runs the entity code, and reverses the steps on return.
type Gate struct {
	sys       *System
	key       Key
	entryCost time.Duration

	// Calls counts gate traversals.
	Calls uint64
}

// NewGate builds a call gate into the domain guarded by key.
func NewGate(sys *System, key Key) *Gate {
	return &Gate{sys: sys, key: key, entryCost: TrustedEntryCost}
}

// EntryCost is what each Call charges on the caller's virtual CPU.
func (g *Gate) EntryCost() time.Duration { return g.entryCost }

// Key returns the protection key the gate opens.
func (g *Gate) Key() Key { return g.key }

// Call runs fn as trusted-entity code on behalf of thread th, charging the
// domain-switch cost on env's virtual CPU. While fn runs, th's PKRU grants
// read-write to the gate's key. env may be nil for contexts where virtual
// time is charged elsewhere (e.g. pure functional tests).
func (g *Gate) Call(env *sim.Env, th *Thread, fn func()) {
	g.Calls++
	if env != nil && g.entryCost > 0 {
		env.Exec(g.entryCost)
	}
	// In hardware the PKRU is per-CPU, so concurrent threads of one
	// process each hold their own register value. This model keeps one
	// Thread per process, so the gate opens the domain on first entry
	// and closes it only when the outermost concurrent section exits —
	// the checks observed by code inside any gate section are identical
	// to the per-CPU semantics.
	if th.inGate == 0 {
		th.savedPKRU = th.pkru
		if err := th.WRPKRU(th.pkru.With(g.key, PermRW), true); err != nil {
			panic("mpk: gate WRPKRU rejected: " + err.Error())
		}
	} else if th.pkru.Get(g.key) != PermRW {
		// Nested entry into a second domain: open it too.
		if err := th.WRPKRU(th.pkru.With(g.key, PermRW), true); err != nil {
			panic("mpk: gate WRPKRU rejected: " + err.Error())
		}
	}
	th.inGate++
	defer func() {
		th.inGate--
		if th.inGate == 0 {
			if err := th.WRPKRU(th.savedPKRU, true); err != nil {
				panic("mpk: gate restore WRPKRU rejected: " + err.Error())
			}
		}
	}()
	fn()
}
