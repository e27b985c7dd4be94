package workload

import (
	"reflect"
	"testing"
)

// Same (profile, client, seed) → byte-identical stream; different clients
// and seeds → different streams.
func TestMetaProfileDeterminism(t *testing.T) {
	p := MDMix()
	a := p.Ops(3, 500, 42)
	b := p.Ops(3, 500, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	if len(a) != 500 {
		t.Fatalf("%d ops, want 500", len(a))
	}
	c := p.Ops(4, 500, 42)
	if reflect.DeepEqual(a, c) {
		t.Fatal("distinct clients share a stream")
	}
	d := p.Ops(3, 500, 43)
	if reflect.DeepEqual(a, d) {
		t.Fatal("distinct seeds share a stream")
	}
}

// Streams must be self-consistent: an op only ever targets a name that is
// live at that point (created earlier, or pre-created by setup), so a
// driver can replay them verbatim against any backend.
func TestMetaProfileStreamValidity(t *testing.T) {
	p := MDMix()
	live := map[string]bool{}
	for _, f := range p.SetupFilePaths(8) {
		live[f] = true
	}
	ops := p.Ops(2, 2000, 7)
	for i, op := range ops {
		switch op.Kind {
		case MetaCreate:
			if live[op.Path] {
				t.Fatalf("op %d: create over live %s", i, op.Path)
			}
			live[op.Path] = true
		case MetaOpenRead, MetaStat:
			if !live[op.Path] {
				t.Fatalf("op %d: %v of dead %s", i, op.Kind, op.Path)
			}
		case MetaUnlink:
			if !live[op.Path] {
				t.Fatalf("op %d: unlink of dead %s", i, op.Path)
			}
			delete(live, op.Path)
		case MetaRename:
			if !live[op.Path] || live[op.Dst] {
				t.Fatalf("op %d: rename %s -> %s invalid", i, op.Path, op.Dst)
			}
			delete(live, op.Path)
			live[op.Dst] = true
		case MetaReaddir:
			if op.Dir == "" {
				t.Fatalf("op %d: readdir without dir", i)
			}
		}
	}
}

// The generated mix tracks the requested weights (loosely — redraws on an
// empty live set skew mutators early).
func TestMetaProfileMix(t *testing.T) {
	p := MDMix()
	ops := p.Ops(0, 5000, 99)
	counts := map[MetaOpKind]int{}
	for _, op := range ops {
		counts[op.Kind]++
	}
	total := 0
	for _, w := range p.Mix {
		total += w
	}
	for k, w := range p.Mix {
		want := float64(w) / float64(total)
		got := float64(counts[k]) / float64(len(ops))
		if got < want*0.5 || got > want*1.8 {
			t.Fatalf("mix drift for %v: got %.3f want ~%.3f", k, got, want)
		}
	}
	if counts[MetaRename] == 0 || counts[MetaUnlink] == 0 {
		t.Fatal("mutating ops absent from mdmix")
	}
}
