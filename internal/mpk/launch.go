package mpk

import (
	"crypto/sha256"
	"fmt"
)

// This file implements invariant I1 (§5): trusted entities are set up
// correctly at launch. A trusted user registers signatures of trusted-entity
// images with the kernel; the privileged launcher verifies linked images
// against the registry, maps them into the dedicated protection domain,
// scans the untrusted binary for WRPKRU occurrences, and only then drops
// privilege. The paper describes but does not implement this part; here it
// is a real code path.

// wrpkruOpcode is the x86 encoding of WRPKRU: 0F 01 EF.
var wrpkruOpcode = []byte{0x0f, 0x01, 0xef}

// ScanForWRPKRU returns the offsets of every WRPKRU occurrence in code
// (including unaligned/overlapping ones — an attacker can jump mid-
// instruction, so any occurrence is disqualifying, as in ERIM).
func ScanForWRPKRU(code []byte) []int {
	var hits []int
	for i := 0; i+len(wrpkruOpcode) <= len(code); i++ {
		if code[i] == wrpkruOpcode[0] && code[i+1] == wrpkruOpcode[1] && code[i+2] == wrpkruOpcode[2] {
			hits = append(hits, i)
		}
	}
	return hits
}

// Prot is a memory protection bitmask for the mmap model.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// CheckMapProt is the AeoKern interception of memory-management syscalls:
// any mapping that is simultaneously writable and executable is refused so
// untrusted code cannot synthesize a WRPKRU at runtime.
func CheckMapProt(p Prot) error {
	if p&ProtWrite != 0 && p&ProtExec != 0 {
		return ErrWX
	}
	return nil
}

// Signature is a SHA-256 digest of a trusted-entity image.
type Signature [sha256.Size]byte

// Sign computes the signature of an image.
func Sign(image []byte) Signature { return sha256.Sum256(image) }

// Registry is the kernel-side signature registry of trusted entities.
type Registry struct {
	sigs map[string]Signature
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sigs: make(map[string]Signature)}
}

// Register records the signature for a named trusted entity. Only a trusted
// user performs this (before launch).
func (r *Registry) Register(name string, sig Signature) {
	r.sigs[name] = sig
}

// Verify checks a linked image against the registry.
func (r *Registry) Verify(name string, image []byte) error {
	want, ok := r.sigs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnverified, name)
	}
	if Sign(image) != want {
		return fmt.Errorf("%w: %q", ErrBadSig, name)
	}
	return nil
}

// TrustedImage is a trusted-entity image to be linked at launch.
type TrustedImage struct {
	Name  string
	Image []byte
	// Init runs with root privilege during launch (the entity's
	// initialization code).
	Init func(gate *Gate) error
}

// Launcher is the privileged launching process. Each launcher stands for
// one process's address space: protection keys are a per-address-space
// resource (pkey_alloc allocates from the calling process's 16 keys, not a
// machine-wide pool), so every launcher owns a fresh key namespace. Key
// collisions across processes are harmless — a PKRU is only ever checked
// against regions of its own process, and untrusted threads deny every
// nonzero key regardless of which process allocated it.
type Launcher struct {
	sys     *System
	reg     *Registry
	nextKey Key
}

// NewLauncher builds a launcher over the kernel's signature registry.
func NewLauncher(sys *System, reg *Registry) *Launcher {
	return &Launcher{sys: sys, reg: reg, nextKey: 1}
}

// allocKey allocates a protection key from this address space (pkey_alloc).
func (l *Launcher) allocKey() (Key, error) {
	if l.nextKey >= NumKeys {
		return 0, ErrNoKeys
	}
	k := l.nextKey
	l.nextKey++
	return k, nil
}

// Launch verifies and maps the trusted entities, scans the untrusted binary
// for WRPKRU, runs entity initialization, and returns the application's
// (untrusted) thread plus the gate into the shared trusted domain. It is
// the only path that creates gates in a correctly-launched process. Calls
// through the gate pay TrustedEntryCost when entities are linked; with none
// linked there is no trusted entity to switch to, and the gate is free.
func (l *Launcher) Launch(untrustedBinary []byte, entities []TrustedImage) (*Thread, *Gate, error) {
	// I2 precondition: the untrusted binary must not contain WRPKRU.
	if hits := ScanForWRPKRU(untrustedBinary); len(hits) > 0 {
		return nil, nil, fmt.Errorf("%w: %d occurrence(s) in untrusted binary", ErrWRPKRU, len(hits))
	}
	// I1: verify every linked trusted entity against the registry.
	for _, ent := range entities {
		if err := l.reg.Verify(ent.Name, ent.Image); err != nil {
			return nil, nil, err
		}
	}
	key, err := l.allocKey()
	if err != nil {
		return nil, nil, err
	}
	gate := NewGate(l.sys, key)
	if len(entities) == 0 {
		gate.entryCost = 0
	}
	// Run entity initialization with privilege, then drop it by handing
	// control to the untrusted thread.
	for _, ent := range entities {
		if ent.Init != nil {
			if err := ent.Init(gate); err != nil {
				return nil, nil, fmt.Errorf("mpk: init of %q failed: %w", ent.Name, err)
			}
		}
	}
	return NewUntrustedThread(), gate, nil
}
