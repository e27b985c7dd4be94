package experiments

import (
	"testing"

	"aeolia/internal/machine"
)

type machineAlias = machine.Machine

var machineNew = machine.New

// TestRegistryCoversPaperEvaluation pins the experiment registry against
// the paper's evaluation artifacts.
func TestRegistryCoversPaperEvaluation(t *testing.T) {
	want := []string{
		"fig2", "fig3", "fig4", "fig5",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "tab6", "tab8", "abl1", "abl2",
		"qdsweep", "svcscale", "fig_cache", "fig_slo", "fig_replication",
		"fig_simscale", "fig_mdscale", "fig_zerocopy",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("registry[%d] = %q, want %q", i, all[i].ID, id)
		}
		if all[i].Run == nil || all[i].Title == "" {
			t.Fatalf("experiment %q incomplete", id)
		}
		if got := Lookup(id); got == nil || got.ID != id {
			t.Fatalf("Lookup(%q) mismatch", id)
		}
	}
	if Lookup("nonsense") != nil {
		t.Fatal("Lookup of unknown id should be nil")
	}
}

func TestBlockIOLineupComplete(t *testing.T) {
	m := newTestMachine(t)
	for _, name := range []string{"posix", "iou_dfl", "iou_opt", "iou_poll", "spdk", "aeolia"} {
		io, err := newBlockIO(m, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if io == nil {
			t.Fatalf("%s: nil BlockIO", name)
		}
	}
	if _, err := newBlockIO(m, "bogus"); err == nil {
		t.Fatal("unknown stack accepted")
	}
}

// newTestMachine builds a small machine for registry tests.
func newTestMachine(t *testing.T) *machineAlias {
	t.Helper()
	m := machineNew(1, blockDev(4096))
	t.Cleanup(m.Eng.Shutdown)
	return m
}
