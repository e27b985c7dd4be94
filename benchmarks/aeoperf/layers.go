package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"aeolia/internal/trace"
)

// perLayer lists the per-layer metrics in print order: name, unit. Every
// workload prints every one; a layer a workload does not use reads 0.
// Sources: C = deltas of counters the packages export, T = the traced
// repetition (trace.Tracer events plus benchmark-side spans), P = probes.
var perLayer = [][2]string{
	// sim
	{"sim.events_per_op", "count"},   // C
	{"sim.switches_per_op", "count"}, // C
	{"sim.irqs_per_op", "count"},     // C
	{"sim.preempts_per_op", "count"}, // C
	{"sim.idle_frac", "ratio"},       // C
	{"sim.pool_hit_ratio", "ratio"},  // C
	{"sim.host_ns_per_event", "ns"},  // host, untraced repetition
	{"sim.host_ns_per_op", "ns"},     // host, untraced repetition: events_per_op x host_ns_per_event
	{"sim.probe_switch_ns", "ns"},    // P
	{"sim.probe_timer_ns", "ns"},     // P
	{"sched.compute_share", "ratio"}, // C
	// uintr
	{"uintr.notify_sent_per_op", "count"},      // C
	{"uintr.notify_suppressed_ratio", "ratio"}, // C
	{"uintr.post_to_consume_us_p50", "us"},     // T
	{"uintr.post_to_consume_us_p99", "us"},     // T
	{"uintr.probe_post_ns", "ns"},              // P
	{"mpk.gate_calls_per_op", "count"},         // C
	// nvme
	{"nvme.cmds_per_op", "count"},         // C
	{"nvme.bytes_per_op", "B"},            // C
	{"nvme.flushes_per_kop", "count"},     // C
	{"nvme.doorbells_per_op", "count"},    // T
	{"nvme.irqs_per_op", "count"},         // T
	{"nvme.doorbell_to_dev_us_p50", "us"}, // T
	{"nvme.device_us_p50", "us"},          // T
	{"nvme.device_us_p99", "us"},          // T
	{"nvme.probe_cmd_ns", "ns"},           // P
	// aeodriver
	{"aeodriver.prep_to_doorbell_us_p50", "us"}, // T
	{"aeodriver.chain_us_p50", "us"},            // T
	{"aeodriver.chain_us_p99", "us"},            // T
	{"aeodriver.residual_us_p50", "us"},         // T
	{"aeodriver.batch_size_mean", "count"},      // T
	{"aeodriver.probe_read_ns", "ns"},           // P
	// aeofs
	{"aeofs.cache_hit_ratio", "ratio"},         // C
	{"aeofs.fast_read_ratio", "ratio"},         // C
	{"aeofs.evictions_per_kop", "count"},       // C
	{"aeofs.dirty_evictions_per_kop", "count"}, // C
	{"aeofs.readahead_useful_ratio", "ratio"},  // C
	{"aeofs.writeback_pages_per_run", "count"}, // C
	{"aeofs.throttled_per_kop", "count"},       // C
	{"aeofs.dev_bytes_per_user_byte", "ratio"}, // C
	{"aeofs.self_us_p50", "us"},                // T
	{"aeofs.self_us_p99", "us"},                // T
	{"aeofs.journal_commits_per_kop", "count"}, // T
	{"aeofs.background_dev_us_per_op", "us"},   // T
	{"aeofs.probe_hit_read_ns", "ns"},          // P
	{"aeofs.probe_create_ns", "ns"},            // P
	{"iobuf.copies_per_op", "count"},           // T
	// netsim, wire
	{"netsim.frames_per_op", "count"},     // C
	{"netsim.dropped_ratio", "ratio"},     // C
	{"netsim.overflows_per_kop", "count"}, // C
	{"netsim.fabric_us_p50", "us"},        // T
	{"netsim.probe_deliver_ns", "ns"},     // P
	{"wire.probe_codec_ns", "ns"},         // P
	// aeosvc
	{"aeosvc.shed_ratio", "ratio"},        // C
	{"aeosvc.recv_to_admit_us_p50", "us"}, // T
	{"aeosvc.recv_to_admit_us_p99", "us"}, // T
	{"aeosvc.admit_to_fsop_us_p50", "us"}, // T
	{"aeosvc.admit_to_fsop_us_p99", "us"}, // T
	{"aeosvc.fsop_to_reply_us_p50", "us"}, // T
	{"aeosvc.chain_us_p50", "us"},         // T
	// raft, cluster
	{"raft.msgs_per_write", "count"},       // C
	{"raft.elections", "count"},            // C
	{"cluster.retries_per_kop", "count"},   // C
	{"cluster.timeouts_per_kop", "count"},  // C
	{"raft.accept_to_commit_us_p50", "us"}, // T
	{"raft.accept_to_commit_us_p99", "us"}, // T
	{"raft.commit_to_apply_us_p50", "us"},  // T
	{"raft.probe_step_ns", "ns"},           // P
	// aeomds
	{"aeomds.leases_per_open", "count"},        // C
	{"aeomds.revokes_per_kop", "count"},        // C
	{"aeomds.cross_shard_ratio", "ratio"},      // C
	{"aeomds.ns_op_us_p50", "us"},              // T
	{"aeomds.ns_op_us_p99", "us"},              // T
	{"aeomds.open_to_first_byte_us_p50", "us"}, // T
	{"aeomds.probe_ns_op_ns", "ns"},            // P
	// trace
	{"trace.events_per_op", "count"},       // T
	{"trace.host_overhead_ratio", "ratio"}, // T
	{"trace.dropped", "count"},             // T
	{"trace.violations", "count"},          // T
	{"trace.probe_emit_ns", "ns"},          // P
}

// dist is a set of virtual-time samples.
type dist []time.Duration

// p returns the nearest-rank q-th percentile in microseconds: stage times
// are exact sums of the model's constants and read best unrefined.
func (d dist) p(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append(dist(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := min(max(int(math.Ceil(q/100*float64(len(s)))), 1), len(s))
	return us(s[rank-1])
}

// layerTable computes the per-layer metrics of a traced repetition. base is
// the untraced repetition of the same seed and size: host costs come from
// it, and it proves that tracing left virtual time alone.
func layerTable(tr, base *rep) (map[string]float64, []string) {
	m := map[string]float64{}
	var notes []string
	ops := opsOf(tr)
	kops := ops / 1e3
	c := tr.count
	t0, t1 := tr.simT0, tr.simT0+tr.simSpan
	in := func(at time.Duration) bool { return at >= t0 && at <= t1 }

	// C: counters.
	m["sim.events_per_op"] = ratio(float64(tr.events), ops)
	m["sim.switches_per_op"] = ratio(c["sim.switches"], ops)
	m["sim.irqs_per_op"] = ratio(c["sim.irqs"], ops)
	m["sim.preempts_per_op"] = ratio(c["sim.preempts"], ops)
	m["sim.idle_frac"] = ratio(float64(tr.idle), float64(tr.coreTime))
	m["sim.pool_hit_ratio"] = ratio(float64(tr.pool[0]), float64(tr.pool[0]+tr.pool[1]))
	m["sim.host_ns_per_event"] = ratio(float64(base.host.Nanoseconds()), float64(base.events))
	m["sim.host_ns_per_op"] = ratio(float64(base.host.Nanoseconds()), opsOf(base))
	m["sched.compute_share"] = ratio(float64(tr.compute), float64(tr.simSpan))
	m["mpk.gate_calls_per_op"] = ratio(c["mpk.gate_calls"], ops)
	m["uintr.notify_sent_per_op"] = ratio(c["uintr.sent"], ops)
	m["uintr.notify_suppressed_ratio"] = ratio(c["uintr.suppressed"], c["uintr.sent"]+c["uintr.suppressed"])
	m["nvme.cmds_per_op"] = ratio(c["nvme.cmds"], ops)
	m["nvme.bytes_per_op"] = ratio(c["nvme.bytes"], ops)
	m["nvme.flushes_per_kop"] = ratio(c["nvme.flushes"], kops)
	m["aeofs.cache_hit_ratio"] = ratio(c["aeofs.hits"], c["aeofs.hits"]+c["aeofs.misses"])
	m["aeofs.fast_read_ratio"] = ratio(c["aeofs.fast_reads"], ops)
	m["aeofs.evictions_per_kop"] = ratio(c["aeofs.evictions"], kops)
	m["aeofs.dirty_evictions_per_kop"] = ratio(c["aeofs.dirty_evictions"], kops)
	m["aeofs.readahead_useful_ratio"] = ratio(c["aeofs.readahead_hits"], c["aeofs.readahead_issued"])
	m["aeofs.writeback_pages_per_run"] = ratio(c["aeofs.writeback_pages"], c["aeofs.writeback_runs"])
	m["aeofs.throttled_per_kop"] = ratio(c["aeofs.throttled"], kops)
	if _, fs := c["aeofs.hits"]; fs {
		m["aeofs.dev_bytes_per_user_byte"] = ratio(c["nvme.bytes"], float64(tr.fp.Bytes))
	}
	m["netsim.frames_per_op"] = ratio(c["netsim.frames"], ops)
	m["netsim.dropped_ratio"] = ratio(c["netsim.dropped"], c["netsim.frames"])
	m["netsim.overflows_per_kop"] = ratio(c["netsim.overflows"], kops)
	m["aeosvc.shed_ratio"] = ratio(c["aeosvc.shed"], c["aeosvc.received"])
	m["raft.msgs_per_write"] = ratio(c["raft.msgs"], c["cluster.acked_writes"])
	m["raft.elections"] = c["raft.elections"]
	m["cluster.retries_per_kop"] = ratio(c["cluster.retries"], kops)
	m["cluster.timeouts_per_kop"] = ratio(c["cluster.timeouts"], kops)
	m["aeomds.leases_per_open"] = ratio(c["aeomds.granted"], c["aeomds.opens"])
	m["aeomds.revokes_per_kop"] = ratio(c["aeomds.revokes"], kops)
	m["aeomds.cross_shard_ratio"] = ratio(c["aeomds.cross_shard"], ops)

	// T: the trace. Tracing must not have moved virtual time.
	if tr.simSpan != base.simSpan || len(tr.lat) != len(base.lat) {
		notes = append(notes, fmt.Sprintf("tracing moved virtual time: timed phase %v traced vs %v untraced", tr.simSpan, base.simSpan))
	}
	evs := tr.tr.Events()
	an := trace.Analyze(evs)
	m["trace.dropped"] = float64(tr.tr.Dropped())
	m["trace.violations"] = float64(len(an.Violations))
	for i, v := range an.Violations {
		if i < maxFailNotes {
			notes = append(notes, "trace violation: "+v.String())
		}
	}
	m["trace.host_overhead_ratio"] = ratio(float64(tr.host.Nanoseconds())/ops, float64(base.host.Nanoseconds())/opsOf(base))

	var nev, doorbells, burst, irqs, copies, commits float64
	type raftKey struct {
		pg    int32
		index uint64
	}
	accept, apply := map[raftKey]time.Duration{}, map[raftKey]time.Duration{}
	type commitEv struct {
		at    time.Duration
		index uint64
	}
	commitsByPG := map[int32][]commitEv{}
	for _, e := range evs {
		if e.Type == trace.RaftAccept {
			// The leader accepts first; keep the earliest accept per entry
			// even when it precedes the timed phase.
			k := raftKey{e.QID, e.LBA}
			if _, seen := accept[k]; !seen {
				accept[k] = e.At
			}
		}
		if !in(e.At) {
			continue
		}
		nev++
		switch e.Type {
		case trace.DoorbellWrite:
			doorbells++
			burst += float64(e.Aux)
		case trace.IRQRaise:
			irqs++
		case trace.BufCopy:
			copies++
		case trace.JournalCommit:
			commits++
		case trace.RaftCommit:
			commitsByPG[e.QID] = append(commitsByPG[e.QID], commitEv{e.At, e.LBA})
		case trace.RaftApply:
			k := raftKey{e.QID, e.LBA}
			if _, seen := apply[k]; !seen {
				apply[k] = e.At
			}
		}
	}
	m["trace.events_per_op"] = ratio(nev, ops)
	m["nvme.doorbells_per_op"] = ratio(doorbells, ops)
	m["nvme.irqs_per_op"] = ratio(irqs, ops)
	m["aeodriver.batch_size_mean"] = ratio(burst, doorbells)
	m["iobuf.copies_per_op"] = ratio(copies, ops)
	m["aeofs.journal_commits_per_kop"] = ratio(commits, kops)

	// Driver chains of the timed phase, joined to spans.
	var chains []*trace.Chain
	var refs []chainRef
	var prepDB, dbDev, dev, postCons, chainLen dist
	for _, ch := range an.Chains {
		if !ch.Complete() || !in(ch.Prep) || !in(ch.Consume) {
			continue
		}
		thread, ok := tr.threads[int(ch.QID)]
		if !ok {
			thread = -1
		}
		chains = append(chains, ch)
		refs = append(refs, chainRef{thread: thread, lo: ch.Prep, hi: ch.Consume})
		prepDB = append(prepDB, ch.Doorbell-ch.Prep)
		dbDev = append(dbDev, ch.DeviceStart-ch.Doorbell)
		dev = append(dev, ch.DeviceDone-ch.DeviceStart)
		postCons = append(postCons, ch.Consume-ch.Post)
		chainLen = append(chainLen, ch.Consume-ch.Prep)
	}
	m["aeodriver.prep_to_doorbell_us_p50"] = prepDB.p(50)
	m["nvme.doorbell_to_dev_us_p50"] = dbDev.p(50)
	m["nvme.device_us_p50"] = dev.p(50)
	m["nvme.device_us_p99"] = dev.p(99)
	m["uintr.post_to_consume_us_p50"] = postCons.p(50)
	m["uintr.post_to_consume_us_p99"] = postCons.p(99)
	m["aeodriver.chain_us_p50"] = chainLen.p(50)
	m["aeodriver.chain_us_p99"] = chainLen.p(99)

	bySpan, background := joinChains(tr.spans, refs)
	joined := map[int][]interval{}
	for id, cis := range bySpan {
		for _, ci := range cis {
			joined[id] = append(joined[id], interval{refs[ci].lo, refs[ci].hi})
		}
	}
	var bgDev time.Duration
	for _, ci := range background {
		bgDev += chains[ci].DeviceDone - chains[ci].DeviceStart
	}
	self := selfTimes(tr.spans, joined)
	var residual, fsSelf, nsOp, otfb dist
	opStart := map[[2]int]time.Duration{}
	for _, s := range tr.spans {
		if !in(s.VStart) || s.VEnd < 0 {
			continue
		}
		if s.Layer == "op" {
			opStart[[2]int{s.Thread, s.Op}] = s.VStart
		}
		switch s.Layer {
		case "aeodriver", "op":
			// The residual of a driver call (or of a batch op made of
			// driver calls) is what its chains do not cover: gate entry,
			// permission check, submission and completion software.
			if ivs := joined[s.ID]; len(ivs) > 0 {
				residual = append(residual, s.dur()-covered(s.VStart, s.VEnd, ivs))
			}
		case "aeofs":
			fsSelf = append(fsSelf, self[s.ID])
		case "aeomds":
			switch s.Name {
			case "ReadAt":
				if at, ok := opStart[[2]int{s.Thread, s.Op}]; ok {
					otfb = append(otfb, s.VEnd-at)
				}
			case "WriteAt":
			default:
				nsOp = append(nsOp, s.dur())
			}
		}
	}
	m["aeodriver.residual_us_p50"] = residual.p(50)
	m["aeofs.self_us_p50"] = fsSelf.p(50)
	m["aeofs.self_us_p99"] = fsSelf.p(99)
	if _, fs := c["aeofs.hits"]; fs {
		m["aeofs.background_dev_us_per_op"] = ratio(us(bgDev), ops)
	}
	m["aeomds.ns_op_us_p50"] = nsOp.p(50)
	m["aeomds.ns_op_us_p99"] = nsOp.p(99)
	m["aeomds.open_to_first_byte_us_p50"] = otfb.p(50)

	// Service chains.
	var recvAdmit, admitFS, fsReply, svcLen dist
	var svcRefs []chainRef
	for _, sc := range an.SvcChains {
		if sc.Shed || !sc.Complete() || !in(sc.Recv) || !in(sc.Reply) {
			continue
		}
		recvAdmit = append(recvAdmit, sc.Admit-sc.Recv)
		admitFS = append(admitFS, sc.FSOp-sc.Admit)
		fsReply = append(fsReply, sc.Reply-sc.FSOp)
		svcLen = append(svcLen, sc.Reply-sc.Recv)
		if thread, ok := tr.conns[int(sc.Conn)]; ok {
			svcRefs = append(svcRefs, chainRef{thread: thread, lo: sc.Recv, hi: sc.Reply})
		}
	}
	m["aeosvc.recv_to_admit_us_p50"] = recvAdmit.p(50)
	m["aeosvc.recv_to_admit_us_p99"] = recvAdmit.p(99)
	m["aeosvc.admit_to_fsop_us_p50"] = admitFS.p(50)
	m["aeosvc.admit_to_fsop_us_p99"] = admitFS.p(99)
	m["aeosvc.fsop_to_reply_us_p50"] = fsReply.p(50)
	m["aeosvc.chain_us_p50"] = svcLen.p(50)

	// Raft: leader accept → group commit → first apply, per entry.
	var acc2com, com2app dist
	for k, at := range accept {
		cs := commitsByPG[k.pg]
		i := sort.Search(len(cs), func(i int) bool { return cs[i].index >= k.index })
		if !in(at) || i == len(cs) {
			continue
		}
		acc2com = append(acc2com, cs[i].at-at)
		if ap, ok := apply[k]; ok && ap >= cs[i].at {
			com2app = append(com2app, ap-cs[i].at)
		}
	}
	m["raft.accept_to_commit_us_p50"] = acc2com.p(50)
	m["raft.accept_to_commit_us_p99"] = acc2com.p(99)
	m["raft.commit_to_apply_us_p50"] = com2app.p(50)

	// Fabric: what a client-side span spends outside the server. Where the
	// benchmark owns the client (mds_mix) a span's service chains are
	// joined by containment and subtracted one by one; where the system's
	// client library owns the loop, medians are subtracted instead.
	switch {
	case len(svcRefs) > 0 && len(tr.spans) > 0:
		bySvc, _ := joinChains(tr.spans, svcRefs)
		var fabric dist
		for _, s := range tr.spans {
			if cis := bySvc[s.ID]; len(cis) > 0 && s.Layer != "op" {
				d := s.dur()
				for _, ci := range cis {
					d -= svcRefs[ci].hi - svcRefs[ci].lo
				}
				fabric = append(fabric, d)
			}
		}
		m["netsim.fabric_us_p50"] = fabric.p(50)
	case len(svcLen) > 0:
		m["netsim.fabric_us_p50"] = dist(tr.lat).p(50) - svcLen.p(50)
	case len(acc2com) > 0:
		m["netsim.fabric_us_p50"] = dist(tr.lat).p(50) - acc2com.p(50) - com2app.p(50)
	}
	return m, notes
}

// stageSum prints blk_qd1's Fig. 3/17 shape: the traced stages of one read
// against the end-to-end median, with what they leave unattributed.
func stageSum(m map[string]float64, p50 float64) (rows [][2]string, unattributed float64) {
	stages := []string{
		"aeodriver.residual_us_p50", "aeodriver.prep_to_doorbell_us_p50",
		"nvme.doorbell_to_dev_us_p50", "nvme.device_us_p50", "uintr.post_to_consume_us_p50",
	}
	sum := 0.0
	for _, s := range stages {
		sum += m[s]
		rows = append(rows, [2]string{s, fmt.Sprintf("%.3f", m[s])})
	}
	rows = append(rows, [2]string{"sum of stages", fmt.Sprintf("%.3f", sum)})
	rows = append(rows, [2]string{"sim_lat_p50_us (traced repetition)", fmt.Sprintf("%.3f", p50)})
	unattributed = ratio(p50-sum, p50)
	rows = append(rows, [2]string{"unattributed", fmt.Sprintf("%.3f (%.2f %%)", p50-sum, 100*unattributed)})
	return rows, unattributed
}
