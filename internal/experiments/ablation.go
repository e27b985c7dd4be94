package experiments

import (
	"fmt"
	"time"

	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/report"
	"aeolia/internal/sim"
	"aeolia/internal/vfs"
	"aeolia/internal/workload"

	"aeolia/internal/aeofs"
)

// AblTrust quantifies the cost of eager integrity checking (§7.3): the
// paper argues the trusted-entity domain switch costs only ~85 cycles per
// operation, so eager checking is essentially free. We measure AeoFS with
// the gate toll as calibrated, and as the stack table's toll-free AeoFS
// row, on a cached-read and a create workload.
func AblTrust() ([]*report.Table, error) {
	t := &report.Table{
		ID: "abl1", Title: "eager integrity checking cost (gate toll on/off)",
		Columns: []string{"workload", "with gate toll", "toll disabled", "overhead"},
	}
	type point struct {
		name string
		run  func(env *sim.Env, fs vfs.FileSystem) (ops int, err error)
	}
	points := []point{
		{"4KB cached read (kops/s)", func(env *sim.Env, fs vfs.FileSystem) (int, error) {
			fd, err := fs.Open(env, "/abl", vfs.O_CREATE|vfs.O_RDWR)
			if err != nil {
				return 0, err
			}
			defer fs.Close(env, fd)
			buf := make([]byte, 4096)
			fs.Write(env, fd, buf)
			const n = 2000
			for i := 0; i < n; i++ {
				if _, err := fs.ReadAt(env, fd, buf, 0); err != nil {
					return 0, err
				}
			}
			return n, nil
		}},
		{"create (kops/s)", func(env *sim.Env, fs vfs.FileSystem) (int, error) {
			const n = 500
			for i := 0; i < n; i++ {
				fd, err := fs.Open(env, fmt.Sprintf("/abl-c%d", i), vfs.O_CREATE|vfs.O_RDWR)
				if err != nil {
					return 0, err
				}
				if err := fs.Close(env, fd); err != nil {
					return 0, err
				}
			}
			return n, nil
		}},
	}

	for _, p := range points {
		var rates [2]float64 // with the toll, without it
		for i, kind := range []machine.FSKind{machine.KindAeoFS, "aeofs-no-toll"} {
			m := machine.New(1, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 17})
			fi, err := m.BuildFS(kind, machine.FSOptions{})
			if err != nil {
				return nil, err
			}
			var ops int
			var dur time.Duration
			var rerr error
			m.Eng.Spawn("abl", m.Eng.Core(0), func(env *sim.Env) {
				if _, e := fi.Proc.Driver.CreateQP(env); e != nil {
					rerr = e
					return
				}
				start := env.Now()
				ops, rerr = p.run(env, fi.FS)
				dur = env.Now() - start
			})
			m.Eng.Run(0)
			m.Eng.Shutdown()
			if rerr != nil {
				return nil, rerr
			}
			rates[i] = float64(ops) / dur.Seconds() / 1e3
		}
		overhead := (rates[1] - rates[0]) / rates[1] * 100
		t.AddRow(p.name,
			fmt.Sprintf("%.0f", rates[0]),
			fmt.Sprintf("%.0f", rates[1]),
			fmt.Sprintf("%.1f%%", overhead))
	}
	t.Note("paper: each operation pays ~85 cycles to switch to the trusted entity — eager checking is nearly free")
	return []*report.Table{t}, nil
}

// AblJournal quantifies per-thread journaling vs. a single shared journal
// region (the §7.4 scalability design choice): creates in private
// directories with 8 threads.
func AblJournal() ([]*report.Table, error) {
	t := &report.Table{
		ID: "abl2", Title: "per-thread journaling vs single journal region (8-thread creates)",
		Columns: []string{"journal regions", "creates kops/s"},
	}
	for _, regions := range []uint64{1, 64} {
		m := machine.New(8, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 18})
		fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{Journals: regions, JournalBlocks: 2048})
		if err != nil {
			return nil, err
		}
		marks := workload.FXMarks()
		cores := make([]*sim.Core, 8)
		for i := range cores {
			cores[i] = m.Eng.Core(i)
		}
		res, err := workload.RunFXMark(m.Eng, cores, fi.ForThread, marks["MWCL"], 150, 2*time.Minute)
		m.Eng.Shutdown()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(regions), fmt.Sprintf("%.0f", res.KOpsPerSec()))
		t.Note("%d regions: %s", regions, journalEconomy(fi.Trust))
	}
	t.Note("a single region serializes every thread's transactions on one lock and one disk area")
	return []*report.Table{t}, nil
}

// journalEconomy renders a mount's journal write economy: how many block
// images its transactions queued for each one its commits wrote (what
// merging before writing saves), and how many it wrote per distinct block
// committed (1.00 when the merge leaves nothing to save).
func journalEconomy(t *aeofs.TrustLayer) string {
	return fmt.Sprintf("journal: %d images queued, %d written (%.2f queued per written, %.2f written per distinct block committed)",
		t.JournalImagesQueued, t.JournalBlocksWritten,
		ratio(t.JournalImagesQueued, t.JournalBlocksWritten), ratio(t.JournalBlocksWritten, t.JournalBlocksDistinct))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
