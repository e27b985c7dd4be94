package experiments

import (
	"fmt"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/kv"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/report"
	"aeolia/internal/sim"
	"aeolia/internal/workload"
)

// Fig17 regenerates Figure 17: the Aeolia breakdown on 32KB write + fsync,
// comparing the full design against +poll, +k_yield, and +k_intr (each a
// row of the stack table).
func Fig17() ([]*report.Table, error) {
	t := &report.Table{
		ID: "fig17", Title: "AeoFS 32KB write + fsync per completion design",
		Columns: []string{"config", "kops/s", "mean latency (us)", "vs aeolia"},
	}
	var base float64
	for _, kind := range []machine.FSKind{machine.KindAeoFS, "+poll", "+k_yield", "+k_intr"} {
		name := string(kind)
		if kind == machine.KindAeoFS {
			name = "aeolia"
		}
		m := machine.New(1, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 19})
		fi, err := m.BuildFS(kind, machine.FSOptions{Journals: 8, JournalBlocks: 512})
		if err != nil {
			return nil, err
		}
		var res *workload.Result
		var rerr error
		m.Eng.Spawn("bench", m.Eng.Core(0), func(env *sim.Env) {
			if _, e := fi.Proc.Driver.CreateQP(env); e != nil {
				rerr = e
				return
			}
			job := &workload.FileFioJob{
				Name: name, FS: fi.FS, Path: "/fig17",
				Write: true, Pattern: workload.PatternSeq,
				IOSize: 32 << 10, FileSize: 16 << 20, Ops: 150, Fsync: true,
			}
			fd, e := job.Prepare(env)
			if e != nil {
				rerr = e
				return
			}
			defer fi.FS.Close(env, fd)
			res, rerr = job.Run(env, fd)
		})
		m.Eng.Run(0)
		m.Eng.Shutdown()
		if rerr != nil {
			return nil, fmt.Errorf("fig17 %s: %w", name, rerr)
		}
		kops := res.KOpsPerSec()
		if kind == machine.KindAeoFS {
			base = kops
		}
		t.AddRow(name, fmt.Sprintf("%.1f", kops),
			usec(res.Latency.Mean()),
			fmt.Sprintf("%.0f%%", 100*kops/base))
	}
	t.Note("paper: polling gains little; the kernel yield policy costs ~10.6%%; kernel interrupts (eventfd) cost the most")
	return []*report.Table{t}, nil
}

// runFilebench executes one personality across the FS lineup.
func runFilebench(id string, kinds []machine.FSKind, profiles map[string]*workload.FilebenchProfile, names []string, threads, loops int) (*report.Table, error) {
	t := &report.Table{
		ID: id, Title: fmt.Sprintf("Filebench (%d threads, kops/s)", threads),
		Columns: append([]string{"workload"}, kindNames(kinds)...),
	}
	for _, name := range names {
		row := []string{name}
		for _, kind := range kinds {
			m, fi, cores, err := buildFSMachine(kind, threads)
			if err != nil {
				return nil, err
			}
			res, err := workload.RunFilebench(m.Eng, cores, fi.ForThread, profiles[name], loops, 300*time.Second)
			teardown(m, fi)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", kind, name, err)
			}
			row = append(row, fmt.Sprintf("%.1f", res.KOpsPerSec()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func kindNames(ks []machine.FSKind) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = string(k)
	}
	return out
}

// Fig18 regenerates Figure 18: the four Filebench personalities. As in the
// paper, uFS is omitted (the authors could not reproduce stable runs; see
// Figure 19 for the uFS-configured comparison).
func Fig18() ([]*report.Table, error) {
	kinds := []machine.FSKind{machine.KindExt4, machine.KindF2FS, machine.KindAeoFS}
	profiles := workload.FilebenchProfiles(0.008)
	t, err := runFilebench("fig18", kinds, profiles, workload.FilebenchOrder, 8, 12)
	if err != nil {
		return nil, err
	}
	t.Note("paper: AeoFS up to 3.1x ext4 and 6.6x f2fs; fileset scaled to 0.8%% of Table 7")
	return []*report.Table{t}, nil
}

// Fig19 regenerates Figure 19: Filebench under the uFS repository's smaller
// configurations, including uFS.
func Fig19() ([]*report.Table, error) {
	profiles := workload.FilebenchProfiles(0.003)
	t, err := runFilebench("fig19", machine.AllFSKinds, profiles, []string{"webserver", "varmail"}, 4, 10)
	if err != nil {
		return nil, err
	}
	t.Note("paper: AeoFS outperforms uFS by up to 1.33x under uFS's own configuration")
	return []*report.Table{t}, nil
}

// Tab8 regenerates Table 8: LevelDB db_bench throughput (ops/ms).
func Tab8() ([]*report.Table, error) {
	kinds := []machine.FSKind{machine.KindExt4, machine.KindF2FS, machine.KindUFS, machine.KindAeoFS}
	t := &report.Table{
		ID: "tab8", Title: "LevelDB throughput (ops/ms, db_bench)",
		Columns: append([]string{"workload"}, kindNames(kinds)...),
	}
	paper := map[string]string{
		"fill100K":     "ext4 3.33 / f2fs 3.32 / uFS 0.73 / AeoFS 5.98",
		"fillseq":      "649 / 540 / 1028 / 1829",
		"fillsync":     "19 / 19 / 19 / 55",
		"fillrandom":   "492 / 425 / 339 / 686",
		"readrandom":   "203 / 196 / 372 / 419",
		"deleterandom": "537 / 470 / 852 / 1543",
	}
	for _, name := range kv.BenchNames {
		row := []string{name}
		for _, kind := range kinds {
			m, fi, cores, err := buildFSMachine(kind, 1)
			if err != nil {
				return nil, err
			}
			fs := fi.ForThread(0)
			var res *workload.Result
			var rerr error
			done := false
			m.Eng.Spawn("dbbench", cores[0], func(env *sim.Env) {
				defer func() { done = true }()
				res, rerr = kv.RunBench(env, fs, name, kv.BenchSpec{N: 3000})
			})
			deadline := m.Eng.Now() + 300*time.Second
			for !done && m.Eng.Now() < deadline {
				m.Eng.Run(m.Eng.Now() + 100*time.Millisecond)
			}
			teardown(m, fi)
			if rerr != nil {
				return nil, fmt.Errorf("%s %s: %w", kind, name, rerr)
			}
			if !done {
				return nil, fmt.Errorf("%s %s: did not finish", kind, name)
			}
			row = append(row, fmt.Sprintf("%.0f", kv.OpsPerMS(res)))
		}
		t.AddRow(row...)
		t.Note("paper %s: %s", name, paper[name])
	}
	t.Note("1M keys scaled to 3k; value 100B (fill100K: 100KB)")
	return []*report.Table{t}, nil
}
