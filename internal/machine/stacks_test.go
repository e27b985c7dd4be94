package machine

import (
	"testing"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/timing"
)

// TestOnlyAeoliaPaysTheToll launches every row of the stack table the way
// the evaluation does (LaunchStack for a block stack, BuildFS for a file
// system) and reads its gate's toll: Aeolia's rows pay the trusted entry
// and the WRPKRU pair, and every baseline and the toll-off row pay nothing.
func TestOnlyAeoliaPaysTheToll(t *testing.T) {
	pays := map[string]bool{
		"aeolia": true, "aeofs": true, "+poll": true, "+k_yield": true, "+k_intr": true,
		"posix": false, "iou_dfl": false, "iou_opt": false, "iou_poll": false, "spdk": false,
		"ext4": false, "f2fs": false, "ufs": false, "aeofs-no-toll": false,
	}
	if len(stacks) != len(pays) {
		t.Fatalf("stack table has %d rows, want %d", len(stacks), len(pays))
	}
	for name, paid := range pays {
		if _, ok := stacks[name]; !ok {
			t.Errorf("no row %q in the stack table", name)
			continue
		}
		m := New(3, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 14})
		var p *Process
		if stacks[name].mount == nil {
			var err error
			if p, err = m.LaunchStack(name); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		} else {
			fi, err := m.BuildFS(FSKind(name), FSOptions{Journals: 2, UFSWorkerCores: []*sim.Core{m.Eng.Core(1), m.Eng.Core(2)}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fi.Stop()
			p = fi.Proc
		}
		m.Eng.Shutdown()
		var want time.Duration
		if paid {
			want = timing.TrustedEntry + 2*timing.WRPKRU
		}
		if got := p.Gate.EntryCost(); got != want {
			t.Errorf("%s: gate charges %v per call, want %v", name, got, want)
		}
	}
	m := New(1, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 14})
	defer m.Eng.Shutdown()
	if _, err := m.LaunchStack("bogus"); err == nil {
		t.Error("unknown stack launched")
	}
	if _, err := m.BuildFS("spdk", FSOptions{}); err == nil {
		t.Error("BuildFS mounted a block stack")
	}
}
