// Command aeobench regenerates the paper's evaluation tables and figures
// on the simulated testbed.
//
// Usage:
//
//	aeobench list             # show available experiments
//	aeobench fig2 fig10 ...   # run specific experiments
//	aeobench all              # run everything (several minutes)
//	aeobench -md all          # emit markdown (for EXPERIMENTS.md)
//	aeobench -json qdsweep    # emit JSON (for CI bench artifacts)
//	aeobench -trace t.json    # export a Chrome trace of one QD32 window
//	aeobench -svc             # svcscale sweep (rx-irq gate) + traced 128-client run + invariant check
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"aeolia/internal/experiments"
	"aeolia/internal/report"
	"aeolia/internal/trace"
)

func main() {
	md := flag.Bool("md", false, "emit markdown tables")
	jsonOut := flag.Bool("json", false, "emit JSON tables")
	traceOut := flag.String("trace", "", "run one traced QD32 qdsweep window and write Chrome trace_event JSON to this file")
	svc := flag.Bool("svc", false, "run the service sweep (rx_irqs_per_req gate) and the traced 128-client cell, and check trace invariants + admission accounting")
	cache := flag.Bool("cache", false, "run the fig_cache sweep (read-ahead speedup / no-loss / waste gate) plus the traced sequential cell; print cache counters and fail on trace invariant violations")
	slo := flag.Bool("slo", false, "run the fig_slo antagonist sweep plus the traced enforced io_flood cell; fail on trace invariant violations (incl. the urgent delivery bound)")
	repl := flag.Bool("repl", false, "run the fig_replication sweep plus the traced rf=3 leader-crash cell; fail on linearizability violations or lost acked writes")
	simscale := flag.Bool("simscale", false, "run the fig_simscale 64-node/1024-client deployment serially and with parallel lanes; fail unless the two modes are byte-identical")
	mds := flag.Bool("mds", false, "run the fig_mdscale sweep plus the traced 8-shard cell; fail on a data node writing more than 1.5 journal images per distinct block committed, on trace invariant violations (lease lifecycle, data-I/O-under-lease, rename visibility) or on a lease-accounting mismatch")
	zerocopy := flag.Bool("zerocopy", false, "run the fig_zerocopy sweep plus the traced ring + epoch-cache cells; fail on trace invariant violations or any read/write chain exceeding its announced copy budget")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: aeobench [-md|-json] [-trace FILE] [-svc] [-cache] [-slo] [-repl] [-simscale] [-mds] [-zerocopy] list | all | <experiment-id>...\n\nexperiments:\n")
		for _, e := range experiments.All() {
			fmt.Fprintf(os.Stderr, "  %-7s %s\n", e.ID, e.Title)
		}
	}
	flag.Parse()
	args := flag.Args()
	if *traceOut != "" {
		if err := runTraced(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "aeobench: %v\n", err)
			os.Exit(1)
		}
		if len(args) == 0 && !*svc {
			return
		}
	}
	if *svc {
		if err := runSvc(); err != nil {
			fmt.Fprintf(os.Stderr, "aeobench: %v\n", err)
			os.Exit(1)
		}
		if len(args) == 0 {
			return
		}
	}
	if *cache {
		if err := runCache(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "aeobench: %v\n", err)
			os.Exit(1)
		}
		if len(args) == 0 {
			return
		}
	}
	if *slo {
		if err := runSlo(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "aeobench: %v\n", err)
			os.Exit(1)
		}
		if len(args) == 0 {
			return
		}
	}
	if *repl {
		if err := runRepl(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "aeobench: %v\n", err)
			os.Exit(1)
		}
		if len(args) == 0 {
			return
		}
	}
	if *simscale {
		if err := runSimScale(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "aeobench: %v\n", err)
			os.Exit(1)
		}
		if len(args) == 0 {
			return
		}
	}
	if *mds {
		if err := runMDS(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "aeobench: %v\n", err)
			os.Exit(1)
		}
		if len(args) == 0 {
			return
		}
	}
	if *zerocopy {
		if err := runZerocopy(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "aeobench: %v\n", err)
			os.Exit(1)
		}
		if len(args) == 0 {
			return
		}
	}
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if args[0] == "list" {
		for _, e := range experiments.All() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		return
	}

	var todo []*experiments.Experiment
	if args[0] == "all" {
		todo = experiments.All()
	} else {
		for _, id := range args {
			e := experiments.Lookup(id)
			if e == nil {
				fmt.Fprintf(os.Stderr, "aeobench: unknown experiment %q (try 'list')\n", id)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	var all []*report.Table
	for _, e := range todo {
		start := time.Now()
		tables, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "aeobench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		for _, t := range tables {
			switch {
			case *jsonOut:
				all = append(all, t)
			case *md:
				t.Markdown(os.Stdout)
			default:
				t.Print(os.Stdout)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *jsonOut {
		if err := report.WriteJSON(os.Stdout, all); err != nil {
			fmt.Fprintf(os.Stderr, "aeobench: %v\n", err)
			os.Exit(1)
		}
	}
}

// runTraced runs one batched QD32 qdsweep window with tracing on, writes
// the Chrome trace_event JSON to path, and prints the per-stage latency
// table the analyzer reconstructed from the same event stream.
func runTraced(path string) error {
	tr, kiops, err := experiments.QDSweepTrace(32)
	if err != nil {
		return err
	}
	evs := tr.Events()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteChrome(f, evs); err != nil {
		return err
	}
	an := trace.Analyze(evs)
	an.LatencyTable().Print(os.Stdout)
	for _, v := range an.Violations {
		fmt.Fprintf(os.Stderr, "aeobench: trace invariant violation: %v\n", v)
	}
	fmt.Fprintf(os.Stderr, "[trace: %d events (%d dropped), %.0f KIOPS, %d chains -> %s]\n",
		len(evs), tr.Dropped(), kiops, len(an.Chains), path)
	if len(an.Violations) > 0 {
		return fmt.Errorf("%d trace invariant violation(s)", len(an.Violations))
	}
	return nil
}

// runCache is the page-cache gate: it runs the fig_cache sweep, which fails
// unless read-ahead earns its place as the default (sequential speedup, no
// loss on random and mixed reads, bounded waste — experiments.FigCache),
// then drives the traced sequential cell (default budget, read-ahead on),
// prints its cache counters — hit/miss, evictions, read-ahead waste,
// resident high-water mark — and fails (non-zero exit) on any
// trace-invariant violation.
func runCache(jsonOut bool) error {
	tables, err := experiments.FigCache()
	if err != nil {
		return err
	}
	tr, r, err := experiments.FigCacheTrace()
	if err != nil {
		return err
	}
	evs := tr.Events()
	an := trace.Analyze(evs)
	s := r.Stats
	t := &report.Table{
		ID:    "cache_counters",
		Title: "Page-cache counters (traced sequential cell, read-ahead on)",
		Columns: []string{"hits", "misses", "evict", "dirty_evict",
			"ra_issued", "ra_hits", "ra_waste", "wb_runs", "wb_pages",
			"throttled", "hwm_kb"},
	}
	t.AddRowf(
		fmt.Sprintf("%d", s.Hits), fmt.Sprintf("%d", s.Misses),
		fmt.Sprintf("%d", s.Evictions), fmt.Sprintf("%d", s.DirtyEvictions),
		fmt.Sprintf("%d", s.ReadaheadIssued), fmt.Sprintf("%d", s.ReadaheadHits),
		fmt.Sprintf("%d", s.ReadaheadWaste), fmt.Sprintf("%d", s.WritebackRuns),
		fmt.Sprintf("%d", s.WritebackPages), fmt.Sprintf("%d", s.Throttled),
		fmt.Sprintf("%d", s.ResidentHWM>>10))
	tables = append(tables, t)
	if jsonOut {
		if err := report.WriteJSON(os.Stdout, tables); err != nil {
			return err
		}
	} else {
		for _, t := range tables {
			t.Print(os.Stdout)
		}
	}
	for _, v := range an.Violations {
		fmt.Fprintf(os.Stderr, "aeobench: trace invariant violation: %v\n", v)
	}
	fmt.Fprintf(os.Stderr, "[cache: %d events (%d dropped), %d ops, %.1f MB/s, p99 %v]\n",
		len(evs), tr.Dropped(), r.Res.Ops, r.Res.MBps(), r.Res.Latency.P99())
	if len(an.Violations) > 0 {
		return fmt.Errorf("%d trace invariant violation(s)", len(an.Violations))
	}
	return nil
}

// runSlo is the SLO gate: it prints the full fig_slo antagonist sweep (the
// JSON form is the CI artifact), then replays the enforced io_flood cell
// with tracing on and fails on any trace-invariant violation — including
// priority-ordered delivery and the urgent delivery-latency bound armed by
// the SLOBound event — an incomplete service chain, or an admission
// accounting mismatch.
func runSlo(jsonOut bool) error {
	tables, err := experiments.FigSlo()
	if err != nil {
		return err
	}
	if jsonOut {
		if err := report.WriteJSON(os.Stdout, tables); err != nil {
			return err
		}
	} else {
		for _, t := range tables {
			t.Print(os.Stdout)
		}
	}
	tr, r, err := experiments.FigSloTrace()
	if err != nil {
		return err
	}
	evs := tr.Events()
	an := trace.Analyze(evs)
	for _, v := range an.Violations {
		fmt.Fprintf(os.Stderr, "aeobench: trace invariant violation: %v\n", v)
	}
	incomplete := 0
	for _, c := range an.SvcChains {
		if !c.Complete() {
			incomplete++
		}
	}
	urgent := r.Tenants[0]
	fmt.Fprintf(os.Stderr, "[slo: %d events (%d dropped), urgent p99.9 %v under enforced io_flood, %d antagonist ops, %d preemptions, %d chains (%d incomplete)]\n",
		len(evs), tr.Dropped(), urgent.Latency.Percentile(99.9), r.AntagOps, r.Preemptions,
		len(an.SvcChains), incomplete)
	if len(an.Violations) > 0 {
		return fmt.Errorf("%d trace invariant violation(s)", len(an.Violations))
	}
	if incomplete > 0 {
		return fmt.Errorf("%d incomplete service chain(s)", incomplete)
	}
	if err := r.Srv.CheckAccounting(); err != nil {
		return fmt.Errorf("admission accounting: %w", err)
	}
	return nil
}

// runRepl is the replication gate: it prints the full fig_replication sweep
// (the JSON form is the CI artifact), then replays the rf=3 leader-crash
// cell with tracing on and fails on any linearizability violation —
// commit-index monotonicity, divergent committed entries, acks before
// quorum, stale reads after acknowledged writes — or any acknowledged write
// the post-run audit cannot find intact on every replica.
func runRepl(jsonOut bool) error {
	tables, err := experiments.FigReplication()
	if err != nil {
		return err
	}
	if jsonOut {
		if err := report.WriteJSON(os.Stdout, tables); err != nil {
			return err
		}
	} else {
		for _, t := range tables {
			t.Print(os.Stdout)
		}
	}
	tr, r, err := experiments.FigReplicationTrace()
	if err != nil {
		return err
	}
	evs := tr.Events()
	an := trace.Analyze(evs)
	for _, v := range an.Violations {
		fmt.Fprintf(os.Stderr, "aeobench: trace invariant violation: %v\n", v)
	}
	lost := r.C.VerifyAcks()
	for _, e := range lost {
		fmt.Fprintf(os.Stderr, "aeobench: lost-write audit: %v\n", e)
	}
	fmt.Fprintf(os.Stderr, "[repl: %d events (%d dropped), %d acked writes, %d crashes, %d elections, worst recovery %v]\n",
		len(evs), tr.Dropped(), r.Stats.AckedWrites, r.Stats.Crashes, r.Stats.Elections, r.Recovery)
	if len(an.Violations) > 0 {
		return fmt.Errorf("%d trace invariant violation(s)", len(an.Violations))
	}
	if len(lost) > 0 {
		return fmt.Errorf("%d lost or divergent acked write(s)", len(lost))
	}
	return nil
}

// runSimScale is the scale gate: FigSimScale runs the 64-node/1024-client
// deployment serially and with parallel lanes and errors internally unless
// acks, stats, and the FNV ack hash are byte-identical; this wrapper prints
// the tables (the JSON form is the CI artifact) and summarizes the measured
// wall-clock cost of each mode. Speedup is a measurement, not a gate — on a
// single-core runner the parallel mode is pure overhead by design.
func runSimScale(jsonOut bool) error {
	tables, err := experiments.FigSimScale()
	if err != nil {
		return err
	}
	if jsonOut {
		if err := report.WriteJSON(os.Stdout, tables); err != nil {
			return err
		}
	} else {
		for _, t := range tables {
			t.Print(os.Stdout)
		}
	}
	for _, t := range tables {
		if t.ID != "fig_simscale_timing" {
			continue
		}
		for _, row := range t.Rows {
			if len(row) >= 7 && row[0] == "cluster_64x1024" {
				fmt.Fprintf(os.Stderr, "[simscale: %s gomaxprocs=%s wall=%sms speedup=%s]\n",
					row[1], row[2], row[3], row[6])
			}
		}
	}
	return nil
}

// runMDS is the metadata-service gate: it prints the full fig_mdscale
// sweep (the JSON form is the CI artifact; the sweep itself fails on a data
// node whose journal writes more than 1.5 images per distinct block
// committed), then replays the 8-shard / 4-data-node cell with tracing on
// (same journal gate) and fails on any trace-invariant
// violation — lease lifecycle, data I/O under a dead lease, rename
// visibility ordering — or a lease-accounting mismatch between the
// service books and the traced grant stream.
func runMDS(jsonOut bool) error {
	tables, err := experiments.MDScale()
	if err != nil {
		return err
	}
	if jsonOut {
		if err := report.WriteJSON(os.Stdout, tables); err != nil {
			return err
		}
	} else {
		for _, t := range tables {
			t.Print(os.Stdout)
		}
	}
	tr, r, err := experiments.MDScaleTrace()
	if err != nil {
		return err
	}
	evs := tr.Events()
	an := trace.Analyze(evs)
	for _, v := range an.Violations {
		fmt.Fprintf(os.Stderr, "aeobench: trace invariant violation: %v\n", v)
	}
	var grants uint64
	for _, ev := range evs {
		if ev.Type == trace.MDSLeaseGrant {
			grants++
		}
	}
	fmt.Fprintf(os.Stderr, "[mds: %d events (%d dropped), %.1f ns-kops, otfb p99 %v; leases %d granted / %d released / %d revoked]\n",
		len(evs), tr.Dropped(), r.KOps(), r.OTFB.P99(), r.Svc.Granted, r.Svc.Released, r.Svc.Revoked)
	if len(an.Violations) > 0 {
		return fmt.Errorf("%d trace invariant violation(s)", len(an.Violations))
	}
	if r.Svc.Granted != grants {
		return fmt.Errorf("lease accounting: books say %d granted, trace says %d", r.Svc.Granted, grants)
	}
	return nil
}

// runZerocopy is the zero-copy gate: it prints the full fig_zerocopy sweep
// (the JSON form is the CI artifact), then replays the QD32 ring cell and
// the 4-core epoch-cache cell with tracing on — each on its own tracer —
// and fails on any trace-invariant violation, any read/write chain that
// exceeds its announced per-path copy budget (at most one payload copy end
// to end), or either zero-copy mechanism failing to engage.
func runZerocopy(jsonOut bool) error {
	tables, err := experiments.FigZerocopy()
	if err != nil {
		return err
	}
	if jsonOut {
		if err := report.WriteJSON(os.Stdout, tables); err != nil {
			return err
		}
	} else {
		for _, t := range tables {
			t.Print(os.Stdout)
		}
	}
	ringTr, cacheTr, kiops, cache, err := experiments.FigZerocopyTrace()
	if err != nil {
		return err
	}
	violations := 0
	var chains int
	var copies, maxPerChain uint64
	for _, cell := range []struct {
		name string
		tr   *trace.Tracer
	}{{"ring", ringTr}, {"cache", cacheTr}} {
		an := trace.Analyze(cell.tr.Events())
		for _, v := range an.Violations {
			fmt.Fprintf(os.Stderr, "aeobench: %s trace invariant violation: %v\n", cell.name, v)
		}
		violations += len(an.Violations)
		c, n, m := an.CopyStats()
		chains += c
		copies += n
		if m > maxPerChain {
			maxPerChain = m
		}
	}
	fmt.Fprintf(os.Stderr, "[zerocopy: ring %.0f KIOPS at QD32; cache %.0f KIOPS/core x4 (%d fast reads); %d chains, %d copies, max %d/chain]\n",
		kiops, cache.PerCoreKIOPS, cache.EpochReads, chains, copies, maxPerChain)
	if violations > 0 {
		return fmt.Errorf("%d trace invariant violation(s)", violations)
	}
	if chains == 0 {
		return fmt.Errorf("no copy chains traced")
	}
	if maxPerChain > 1 {
		return fmt.Errorf("a chain performed %d payload copies — budget is 1 end to end", maxPerChain)
	}
	return nil
}

// runSvc runs the client-scaling sweep, whose saturated admission-off cells
// carry the interrupt-mitigation gate (rx_irqs_per_req), then drives the
// traced 128-client admission-controlled cell, prints the per-stage service
// latency table the analyzer reconstructed from the trace, and fails
// (non-zero exit) on the gate, any causal-invariant violation or an
// admission accounting mismatch.
func runSvc() error {
	tables, err := experiments.SvcScale()
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Print(os.Stdout)
	}
	tr, r, err := experiments.SvcScaleTrace()
	if err != nil {
		return err
	}
	evs := tr.Events()
	an := trace.Analyze(evs)
	an.SvcLatencyTable().Print(os.Stdout)
	for _, v := range an.Violations {
		fmt.Fprintf(os.Stderr, "aeobench: trace invariant violation: %v\n", v)
	}
	incomplete := 0
	for _, c := range an.SvcChains {
		if !c.Complete() {
			incomplete++
		}
	}
	fmt.Fprintf(os.Stderr, "[svc: %d events (%d dropped), %d ops, p99 %v, %d chains (%d incomplete), %d shed]\n",
		len(evs), tr.Dropped(), r.Res.Ops, r.Res.Latency.P99(), len(an.SvcChains), incomplete, r.Shed)
	if len(an.Violations) > 0 {
		return fmt.Errorf("%d trace invariant violation(s)", len(an.Violations))
	}
	if incomplete > 0 {
		return fmt.Errorf("%d incomplete service chain(s)", incomplete)
	}
	if err := r.Srv.CheckAccounting(); err != nil {
		return fmt.Errorf("admission accounting: %w", err)
	}
	return nil
}
