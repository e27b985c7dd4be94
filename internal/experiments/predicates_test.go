package experiments

import (
	"errors"
	"strings"
	"testing"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/cluster"
	"aeolia/internal/trace"
	"aeolia/internal/workload"
)

// stream builds synthetic event streams with auto-incrementing Seq, for
// handing a Trace check a doctored traced cell.
type stream struct{ evs []trace.Event }

func (s *stream) add(at time.Duration, typ trace.Type, core, qid int, cid uint32, lba, aux uint64) *stream {
	s.evs = append(s.evs, trace.Event{Seq: uint64(len(s.evs) + 1), At: at, Type: typ,
		Core: int32(core), QID: int32(qid), CID: cid, LBA: lba, Aux: aux})
	return s
}

func (s *stream) cell() *tracedCell { return newTracedCell("doctored", s.evs, 0) }

// ioChain appends one command's life: prep, doorbell, device, CQE post, and
// a consume inside the user-interrupt handler bracket — or, undelivered,
// outside any.
func (s *stream) ioChain(at time.Duration, cid uint32, delivered bool) *stream {
	s.add(at, trace.SQEPrep, -1, 1, cid, 7, 1).
		add(at, trace.DoorbellWrite, -1, 1, trace.NoCID, 0, 1).
		add(at, trace.DeviceStart, -1, 1, cid, 7, 1).
		add(at+5000, trace.DeviceDone, -1, 1, cid, 7, 0).
		add(at+5000, trace.CQEPost, -1, 1, cid, 0, 0)
	if !delivered {
		return s.add(at+5000, trace.CQEConsume, -1, 1, cid, 0, 0)
	}
	return s.add(at+5000, trace.UPIDPost, 0, -1, trace.NoCID, 0, 3).
		add(at+5000, trace.UINTRDeliver, 0, -1, trace.NoCID, 0, 1).
		add(at+5000, trace.HandlerEnter, 0, -1, trace.NoCID, 0, 3).
		add(at+5000, trace.CQEConsume, -1, 1, cid, 0, 0).
		add(at+5000, trace.HandlerExit, 0, -1, trace.NoCID, 0, 3)
}

// svcChain appends one admitted service request: recv, admit, fs-op, reply.
func (s *stream) svcChain(at time.Duration, req uint32) *stream {
	return s.add(at, trace.SvcReqRecv, 0, 7, req, 0, 3).
		add(at+500, trace.SvcAdmit, 0, 7, req, 0, 1).
		add(at+8000, trace.SvcFSOp, 1, 7, req, 0, 4096).
		add(at+8500, trace.SvcReply, 1, 7, req, 0, 0)
}

// cacheCell is a stream holding every event type fcTraceGate ranges over
// under a 1 MiB budget; the insert leaves resident bytes at residentAfter.
func cacheCell(residentAfter uint64) *tracedCell {
	return new(stream).
		add(0, trace.CacheBudget, 0, -1, trace.NoCID, 0, fcDefaultCache).
		add(100, trace.ReadaheadIssue, 0, -1, trace.NoCID, 8, 4).
		add(200, trace.CacheInsert, 0, -1, trace.NoCID, 4, residentAfter).
		add(300, trace.ReadaheadHit, 0, -1, trace.NoCID, 8, 0).
		add(400, trace.WritebackRun, 0, -1, trace.NoCID, 64, 2).
		add(500, trace.CacheEvict, 0, -1, 1, 64, 0).
		cell()
}

// copyCell announces a copy budget for the buffered-read path and copies one
// chain's payload the given number of times.
func copyCell(budget uint64, copies int) *tracedCell {
	s := new(stream).
		add(0, trace.CopyBudget, -1, trace.PathFSRead, trace.NoCID, 0, budget).
		add(100, trace.BufHandoff, 0, trace.PathFSRead, 7, 0, 0x0102)
	for i := 0; i < copies; i++ {
		s.add(200, trace.BufCopy, 0, trace.PathFSRead, 7, 0, 4096)
	}
	return s.cell()
}

func mbps(mb float64) *workload.Result {
	return &workload.Result{Bytes: uint64(mb * 1e6), Elapsed: time.Second}
}

// TestPredicatesBite feeds every acceptance predicate and every Trace check
// an input it must accept and doctored ones it must reject by name. The
// figures themselves only ever show a predicate passing; this is the other
// direction, so a predicate that stopped checking anything fails here.
func TestPredicatesBite(t *testing.T) {
	raOn := func(mb float64, issued, hits, waste uint64) *fcResult {
		return &fcResult{Res: mbps(mb), Stats: aeofs.CacheStats{ReadaheadIssued: issued, ReadaheadHits: hits, ReadaheadWaste: waste}}
	}
	raOff := &fcResult{Res: mbps(100)}
	scale := func(writes, reads uint64, lost int) *simScaleResult {
		return &simScaleResult{Stats: cluster.Stats{AckedWrites: writes, Reads: reads}, Lost: lost}
	}
	okChain := func() *tracedCell { return new(stream).ioChain(0, 1, true).cell() }
	okSvc := func() *stream { return new(stream).add(0, trace.SLOBound, -1, -1, 1, 0, 200000).svcChain(100, 1) }
	okLease := func() *stream {
		return new(stream).add(0, trace.MDSLeaseGrant, -1, 0, 100, 5, 0).add(1000, trace.MDSDataIO, -1, 1, 100, 5, 4096)
	}
	svcOps := uint64(svcGateClients * svcOpsPerCli)

	cases := []struct {
		name string
		got  error
		want string // "" = must pass
	}{
		{"qdGate pass", qdGate(32, 100, 250), ""},
		{"qdGate other depth", qdGate(16, 100, 100), ""},
		{"qdGate slow", qdGate(32, 100, 150), "speedup 1.50x"},

		{"svcRxGate pass", svcRxGate(128, false, 0.01), ""},
		{"svcRxGate idle dispatcher", svcRxGate(8, false, 0.9), ""},
		{"svcRxGate unmasked", svcRxGate(32, false, 0.9), "rx notifications per request"},
		{"svcTailGate pass", svcTailGate(10*time.Millisecond, time.Millisecond, 0, 40), ""},
		{"svcTailGate tail not cut", svcTailGate(time.Millisecond, time.Millisecond, 0, 40), "strictly lower"},
		{"svcTailGate shed = 0", svcTailGate(10*time.Millisecond, time.Millisecond, 0, 0), "shed nothing"},
		{"svcTailGate uncontrolled shed", svcTailGate(10*time.Millisecond, time.Millisecond, 3, 40), "uncontrolled run shed 3"},

		{"fcGate pass", fcGate("seqread", fcDefaultCache, raOff, raOn(250, 100, 90, 10)), ""},
		{"fcGate randread pass", fcGate("randread", fcDefaultCache, raOff, raOn(99.5, 0, 0, 0)), ""},
		{"fcGate no speedup", fcGate("seqread", fcDefaultCache, raOff, raOn(150, 100, 90, 10)), "read-ahead speedup 1.50x"},
		{"fcGate never engaged", fcGate("seqread", fcDefaultCache, raOff, raOn(250, 0, 0, 0)), "never engaged"},
		{"fcGate waste", fcGate("seqread", fcDefaultCache, raOff, raOn(250, 100, 50, 50)), "evicted unread"},
		{"fcGate randread loss", fcGate("randread", fcDefaultCache, raOff, raOn(90, 0, 0, 0)), "0.900x of off"},

		{"sloTailGate pass", sloTailGate("io_flood", 600*time.Microsecond, 150*time.Microsecond), ""},
		{"sloTailGate other antagonist", sloTailGate("cpu_hog", 100*time.Microsecond, 90*time.Microsecond), ""},
		{"sloTailGate tail not cut", sloTailGate("io_flood", 200*time.Microsecond, 150*time.Microsecond), "want >= 2x lower"},

		{"replGate pass", replGate(3, "clean", 0, 4.5), ""},
		{"replGate lossy is unbounded", replGate(3, "lossy", 0, 9), ""},
		{"replGate overflow", replGate(3, "crash", 2, 4.5), "2 link overflow"},
		{"replGate frames", replGate(3, "clean", 0, 5.5), "5.50 raft frames per op"},

		{"simScaleGate pass", simScaleGate(scale(1456, 592, 0)), ""},
		{"simScaleGate unfinished", simScaleGate(scale(1456, 591, 0)), "2047 of 2048 ops finished"},
		{"simScaleGate lost", simScaleGate(scale(1456, 592, 3)), "3 acknowledged write(s) lost"},

		{"mdsJournalGate pass", mdsJournalGate(0, &aeofs.TrustLayer{JournalBlocksWritten: 10, JournalBlocksDistinct: 10}), ""},
		{"mdsJournalGate every image", mdsJournalGate(1, &aeofs.TrustLayer{JournalBlocksWritten: 48, JournalBlocksDistinct: 10}), "fst 1"},
		{"mdsScalingGate pass", mdsScalingGate(2, 10, 25), ""},
		{"mdsScalingGate 8-shard < 2x", mdsScalingGate(4, 10, 15), "want >= 2x"},

		{"zcRingGate pass", zcRingGate(zcQD, 100, 180, 5), ""},
		{"zcRingGate staged = 0", zcRingGate(8, 100, 180, 0), "never staged"},
		{"zcRingGate slow", zcRingGate(zcQD, 100, 120, 5), "want >= 1.5x"},
		{"zcFlatGate pass", zcFlatGate(&zcCacheResult{100, 5}, &zcCacheResult{95, 5}), ""},
		{"zcFlatGate not flat", zcFlatGate(&zcCacheResult{100, 5}, &zcCacheResult{80, 5}), "not flat"},
		{"zcFlatGate locked path", zcFlatGate(&zcCacheResult{100, 5}, &zcCacheResult{95, 0}), "never engaged"},

		{"clean pass", okChain().clean(trace.SQEPrep), ""},
		{"clean empty trace", new(stream).cell().clean(), "emitted no events"},
		{"clean dropped", newTracedCell("doctored", okChain().evs, 3).clean(), "dropped 3 events"},
		{"clean vacuous", okChain().clean(trace.BufCopy), "no BufCopy events"},
		{"clean violation", new(stream).add(0, trace.CQEConsume, -1, 1, 1, 0, 0).cell().clean(), "cqe-exactly-once"},
		{"svcChainsComplete pass", okSvc().cell().svcChainsComplete(), ""},
		{"svcChainsComplete none", okChain().svcChainsComplete(), "no service chains"},
		{"svcChainsComplete incomplete", new(stream).add(0, trace.SvcReqRecv, 0, 7, 1, 0, 3).cell().svcChainsComplete(), "incomplete service chain"},

		{"qdTraceGate pass", qdTraceGate(okChain(), 100), ""},
		{"qdTraceGate idle", qdTraceGate(okChain(), 0), "0.0 KIOPS"},
		{"qdTraceGate no chains", qdTraceGate(okSvc().cell(), 100), "no causal chains"},
		{"qdTraceGate incomplete", qdTraceGate(new(stream).add(0, trace.SQEPrep, -1, 1, 1, 7, 1).cell(), 100), "incomplete chain"},
		{"qdTraceGate polled", qdTraceGate(new(stream).ioChain(0, 1, false).cell(), 100), "outside the handler"},

		{"svcTraceGate pass", svcTraceGate(okSvc().cell(), svcOps), ""},
		{"svcTraceGate lost ops", svcTraceGate(okSvc().cell(), svcOps-1), "completed"},
		{"svcTraceGate all shed", svcTraceGate(new(stream).add(0, trace.SvcReqRecv, 0, 7, 1, 0, 3).
			add(500, trace.SvcShed, 0, 7, 1, 0, 1).add(600, trace.SvcReply, 0, 7, 1, 0, 1).cell(), svcOps), "has no samples"},

		{"fcTraceGate pass", fcTraceGate(cacheCell(fcDefaultCache), fcDefaultCache), ""},
		{"fcTraceGate high-water mark", fcTraceGate(cacheCell(fcDefaultCache), fcDefaultCache+4096), "high-water mark"},
		{"fcTraceGate over budget", fcTraceGate(cacheCell(fcDefaultCache+4096), fcDefaultCache), "cache-budget"},
		{"fcTraceGate no read-ahead", fcTraceGate(new(stream).add(0, trace.CacheBudget, 0, -1, trace.NoCID, 0, fcDefaultCache).cell(), 0), "no CacheInsert events"},

		{"sloTraceGate pass", sloTraceGate(okSvc().cell(), 1000, 500), ""},
		{"sloTraceGate urgent idle", sloTraceGate(okSvc().cell(), 0, 500), "urgent tenant completed no ops"},
		{"sloTraceGate antagonist idle", sloTraceGate(okSvc().cell(), 1000, 0), "nothing adversarial"},
		{"sloTraceGate bound unarmed", sloTraceGate(new(stream).svcChain(0, 1).cell(), 1000, 500), "no SLOBound events"},

		{"replTraceGate pass", replTraceGate(okChain(), 3, 60, time.Millisecond, nil), ""},
		{"replTraceGate no crash", replTraceGate(okChain(), 0, 60, time.Millisecond, nil), "nothing adversarial"},
		{"replTraceGate no acks", replTraceGate(okChain(), 3, 0, time.Millisecond, nil), "no writes acknowledged"},
		{"replTraceGate no recovery", replTraceGate(okChain(), 3, 60, 0, nil), "no recovery time"},
		{"replTraceGate empty trace", replTraceGate(new(stream).cell(), 3, 60, time.Millisecond, nil), "emitted no events"},
		{"replTraceGate lost write", replTraceGate(okChain(), 3, 60, time.Millisecond, []error{errors.New("pg 1 index 9 missing on osd2")}), "1 lost or divergent"},

		{"mdsTraceGate pass", mdsTraceGate(okLease().cell(), 1), ""},
		{"mdsTraceGate grant-count mismatch", mdsTraceGate(okLease().cell(), 2), "books say 2 granted, trace says 1"},
		{"mdsTraceGate uncited data I/O", mdsTraceGate(okLease().add(2000, trace.MDSDataIO, -1, 1, trace.NoCID, 5, 4096).cell(), 1), "data-io-without-lease"},
		{"mdsTraceGate no data I/O", mdsTraceGate(new(stream).add(0, trace.MDSLeaseGrant, -1, 0, 100, 5, 0).cell(), 1), "no MDSDataIO events"},

		{"zcTraceGate pass", zcTraceGate(okChain(), copyCell(1, 1), 64, 8000), ""},
		{"zcTraceGate ring fell back", zcTraceGate(okChain(), copyCell(1, 1), 0, 8000), "never staged"},
		{"zcTraceGate locked reads", zcTraceGate(okChain(), copyCell(1, 1), 64, 0), "never engaged"},
		{"zcTraceGate 2 copies over budget", zcTraceGate(okChain(), copyCell(1, 2), 64, 8000), "copy-budget"},
		{"zcTraceGate 2 copies within a budget of 2", zcTraceGate(okChain(), copyCell(2, 2), 64, 8000), "2 payload copies"},
		{"zcTraceGate no copies", zcTraceGate(okChain(), copyCell(1, 0), 64, 8000), "no BufCopy events"},
	}
	for _, tc := range cases {
		switch {
		case tc.want == "" && tc.got != nil:
			t.Errorf("%s: rejected an input it must accept: %v", tc.name, tc.got)
		case tc.want != "" && tc.got == nil:
			t.Errorf("%s: accepted a doctored input", tc.name)
		case tc.want != "" && !strings.Contains(tc.got.Error(), tc.want):
			t.Errorf("%s: rejected for the wrong reason: %v (want it to name %q)", tc.name, tc.got, tc.want)
		}
	}
}
