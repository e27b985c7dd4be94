package mpk

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestPKRUDefaultGrantsRW(t *testing.T) {
	var p PKRU
	for k := Key(0); k < NumKeys; k++ {
		if p.Get(k) != PermRW {
			t.Fatalf("zero PKRU key %d = %v, want rw", k, p.Get(k))
		}
	}
}

func TestPKRUWithRoundTrip(t *testing.T) {
	f := func(k uint8, perm uint8) bool {
		key := Key(k % NumKeys)
		want := Perm(perm % 3)
		p := UntrustedDefault().With(key, want)
		return p.Get(key) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPKRUWithDoesNotDisturbOtherKeys(t *testing.T) {
	p := UntrustedDefault()
	q := p.With(5, PermRW)
	for k := Key(0); k < NumKeys; k++ {
		if k == 5 {
			continue
		}
		if q.Get(k) != p.Get(k) {
			t.Fatalf("key %d changed from %v to %v", k, p.Get(k), q.Get(k))
		}
	}
}

func TestUntrustedDefaultDeniesAllocatedKeys(t *testing.T) {
	p := UntrustedDefault()
	if p.Get(KeyDefault) != PermRW {
		t.Fatal("key 0 must stay accessible to untrusted code")
	}
	for k := Key(1); k < NumKeys; k++ {
		if p.Get(k) != PermNone {
			t.Fatalf("key %d = %v, want none", k, p.Get(k))
		}
	}
}

func TestCheckDeniesUntrustedAccess(t *testing.T) {
	sys := NewSystem()
	key, err := sys.AllocKey()
	if err != nil {
		t.Fatal(err)
	}
	region := sys.NewRegion("permission-table", key)
	th := NewUntrustedThread()
	if err := sys.Check(th, region, false); !errors.Is(err, ErrProtected) {
		t.Fatalf("read err = %v, want ErrProtected", err)
	}
	if err := sys.Check(th, region, true); !errors.Is(err, ErrProtected) {
		t.Fatalf("write err = %v, want ErrProtected", err)
	}
	if region.Denied != 2 {
		t.Fatalf("Denied = %d, want 2", region.Denied)
	}
}

func TestGateGrantsAccessOnlyInside(t *testing.T) {
	sys := NewSystem()
	key, _ := sys.AllocKey()
	region := sys.NewRegion("core-state", key)
	gate := NewGate(sys, key)
	th := NewUntrustedThread()

	gate.Call(nil, th, func() {
		if err := sys.Check(th, region, true); err != nil {
			t.Errorf("write inside gate denied: %v", err)
		}
		if !th.InTrustedGate() {
			t.Error("InTrustedGate false inside gate")
		}
	})
	if err := sys.Check(th, region, true); !errors.Is(err, ErrProtected) {
		t.Fatalf("write after gate return = %v, want ErrProtected", err)
	}
	if th.InTrustedGate() {
		t.Fatal("still in gate after return")
	}
}

func TestGateNests(t *testing.T) {
	sys := NewSystem()
	k1, _ := sys.AllocKey()
	k2, _ := sys.AllocKey()
	r1 := sys.NewRegion("driver", k1)
	r2 := sys.NewRegion("fs-trust", k2)
	g1 := NewGate(sys, k1)
	g2 := NewGate(sys, k2)
	th := NewUntrustedThread()
	g2.Call(nil, th, func() {
		if err := sys.Check(th, r2, true); err != nil {
			t.Errorf("fs-trust denied inside its gate: %v", err)
		}
		g1.Call(nil, th, func() {
			if err := sys.Check(th, r1, true); err != nil {
				t.Errorf("driver denied inside nested gate: %v", err)
			}
			if err := sys.Check(th, r2, true); err != nil {
				t.Errorf("outer domain lost in nested gate: %v", err)
			}
		})
		// Process-level PKRU model: nested domains stay open until the
		// outermost trusted section exits (see Gate.Call).
		if !th.InTrustedGate() {
			t.Error("left trusted context too early")
		}
	})
	// After the outermost exit, everything is closed again.
	if err := sys.Check(th, r1, true); !errors.Is(err, ErrProtected) {
		t.Errorf("driver accessible after outermost gate: %v", err)
	}
	if err := sys.Check(th, r2, true); !errors.Is(err, ErrProtected) {
		t.Errorf("fs-trust accessible after outermost gate: %v", err)
	}
}

func TestWRPKRUOutsideGateRejected(t *testing.T) {
	th := NewUntrustedThread()
	err := th.WRPKRU(PKRU{}, false)
	if !errors.Is(err, ErrWRPKRU) {
		t.Fatalf("err = %v, want ErrWRPKRU", err)
	}
	// The PKRU must be unchanged.
	if th.PKRU() != UntrustedDefault() {
		t.Fatal("rejected WRPKRU still modified PKRU")
	}
}

func TestKeyExhaustion(t *testing.T) {
	sys := NewSystem()
	for i := 0; i < NumKeys-1; i++ {
		if _, err := sys.AllocKey(); err != nil {
			t.Fatalf("alloc %d failed: %v", i, err)
		}
	}
	if _, err := sys.AllocKey(); !errors.Is(err, ErrNoKeys) {
		t.Fatalf("err = %v, want ErrNoKeys", err)
	}
}

func TestScanForWRPKRU(t *testing.T) {
	clean := bytes.Repeat([]byte{0x90}, 64)
	if hits := ScanForWRPKRU(clean); hits != nil {
		t.Fatalf("false positives: %v", hits)
	}
	dirty := append(append([]byte{0x90, 0x90}, 0x0f, 0x01, 0xef), 0x90)
	hits := ScanForWRPKRU(dirty)
	if len(hits) != 1 || hits[0] != 2 {
		t.Fatalf("hits = %v, want [2]", hits)
	}
	// Unaligned occurrence inside other bytes must also be found.
	embedded := []byte{0x48, 0x0f, 0x01, 0xef, 0xc3}
	if len(ScanForWRPKRU(embedded)) != 1 {
		t.Fatal("embedded WRPKRU missed")
	}
}

func TestCheckMapProtWX(t *testing.T) {
	if err := CheckMapProt(ProtRead | ProtWrite); err != nil {
		t.Fatalf("rw mapping rejected: %v", err)
	}
	if err := CheckMapProt(ProtRead | ProtExec); err != nil {
		t.Fatalf("rx mapping rejected: %v", err)
	}
	if err := CheckMapProt(ProtRead | ProtWrite | ProtExec); !errors.Is(err, ErrWX) {
		t.Fatalf("wx mapping err = %v, want ErrWX", err)
	}
}

func TestLauncherVerifiesSignatures(t *testing.T) {
	sys := NewSystem()
	reg := NewRegistry()
	image := []byte("aeodriver-trusted-code-v1")
	reg.Register("aeodriver", Sign(image))
	l := NewLauncher(sys, reg)

	th, gate, err := l.Launch([]byte{0x90}, []TrustedImage{{Name: "aeodriver", Image: image}})
	if err != nil {
		t.Fatal(err)
	}
	if th == nil || gate == nil {
		t.Fatal("nil thread or gate")
	}
	if gate.EntryCost() != TrustedEntryCost {
		t.Fatalf("gate into a linked entity charges %v, want %v", gate.EntryCost(), TrustedEntryCost)
	}
	// With no entity linked there is nothing to switch to: the gate is free.
	if _, free, err := l.Launch([]byte{0x90}, nil); err != nil || free.EntryCost() != 0 {
		t.Fatalf("gate with no linked entity: err %v, charges %v, want 0", err, free.EntryCost())
	}

	// Tampered image must be refused.
	bad := append([]byte(nil), image...)
	bad[0] ^= 0xff
	if _, _, err := l.Launch([]byte{0x90}, []TrustedImage{{Name: "aeodriver", Image: bad}}); !errors.Is(err, ErrBadSig) {
		t.Fatalf("err = %v, want ErrBadSig", err)
	}

	// Unregistered entity must be refused.
	if _, _, err := l.Launch([]byte{0x90}, []TrustedImage{{Name: "rogue", Image: image}}); !errors.Is(err, ErrUnverified) {
		t.Fatalf("err = %v, want ErrUnverified", err)
	}
}

func TestLauncherRejectsWRPKRUInUntrustedBinary(t *testing.T) {
	sys := NewSystem()
	reg := NewRegistry()
	l := NewLauncher(sys, reg)
	binary := []byte{0x90, 0x0f, 0x01, 0xef}
	if _, _, err := l.Launch(binary, nil); !errors.Is(err, ErrWRPKRU) {
		t.Fatalf("err = %v, want ErrWRPKRU", err)
	}
}

func TestLauncherRunsInit(t *testing.T) {
	sys := NewSystem()
	reg := NewRegistry()
	image := []byte("fs-trust-layer")
	reg.Register("aeofs-trust", Sign(image))
	l := NewLauncher(sys, reg)
	ran := false
	_, _, err := l.Launch([]byte{0x90}, []TrustedImage{{
		Name:  "aeofs-trust",
		Image: image,
		Init:  func(g *Gate) error { ran = g != nil; return nil },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("entity Init did not run")
	}
}
