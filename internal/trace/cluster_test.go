package trace

import "testing"

// Hand-built violation sequences for the PR-7 replication invariants,
// mirroring the PR-6 unit-sequence style: each invariant is exercised in
// both directions (a clean sequence that must not flag, and a corrupted one
// that must). Encodings mirror the cluster emitters: RaftAccept carries
// (pg, node, index, term) in (QID, CID, LBA, Aux); RaftCommit the new commit
// index in LBA; RaftApply the payload hash in Aux; ClusterAck/ClusterRead
// carry raft index<<32 | hash in Aux.

// replicatedWrite appends a clean 3-replica write at (pg, index): accepts on
// all three nodes, leader commit + apply, then the client ack.
func (b *evb) replicatedWrite(pg int, index, term, lba uint64, req uint32, hash uint64) *evb {
	for node := uint32(0); node < 3; node++ {
		b.add(0, RaftAccept, -1, pg, node, index, term)
	}
	b.add(0, RaftCommit, -1, pg, 0, index, 0).
		add(0, RaftApply, -1, pg, 0, index, hash)
	return b.add(0, ClusterAck, -1, pg, req, lba, index<<32|hash)
}

func TestAnalyzerReplicationCleanSequence(t *testing.T) {
	var b evb
	b.add(0, ClusterPG, -1, 1, NoCID, 0, 3).
		add(0, RaftLeader, -1, 1, 0, 0, 1).
		replicatedWrite(1, 5, 1, 100, 7, 0xabc).
		// Followers commit and apply behind the leader.
		add(0, RaftCommit, -1, 1, 1, 5, 0).
		add(0, RaftApply, -1, 1, 1, 5, 0xabc).
		// A later read of the same block served at a higher index.
		add(1, ClusterReadStart, -1, 1, 8, 100, 0).
		add(1, ClusterRead, -1, 1, 8, 100, 6<<32|0xabc)
	a := Analyze(b.evs)
	if len(a.Violations) != 0 {
		t.Fatalf("clean replicated sequence flagged: %v", a.Violations)
	}
}

func TestAnalyzerDivergentCommit(t *testing.T) {
	var b evb
	b.add(0, ClusterPG, -1, 1, NoCID, 0, 3).
		replicatedWrite(1, 5, 1, 100, 7, 0xabc).
		// A second replica applies a different payload at the same index.
		add(0, RaftCommit, -1, 1, 1, 5, 0).
		add(0, RaftApply, -1, 1, 1, 5, 0xdef)
	a := Analyze(b.evs)
	if !hasViolation(a, "divergent-commit") {
		t.Fatalf("divergent apply hash at one index not flagged: %v", a.Violations)
	}
}

func TestAnalyzerAckBeforeQuorum(t *testing.T) {
	var b evb
	// rf=3 so quorum is 2, but only the leader accepted before the ack.
	b.add(0, ClusterPG, -1, 1, NoCID, 0, 3).
		add(0, RaftAccept, -1, 1, 0, 5, 1).
		add(0, RaftCommit, -1, 1, 0, 5, 0).
		add(0, RaftApply, -1, 1, 0, 5, 0xabc).
		add(0, ClusterAck, -1, 1, 7, 100, 5<<32|0xabc)
	a := Analyze(b.evs)
	if !hasViolation(a, "ack-before-quorum") {
		t.Fatalf("under-replicated ack not flagged: %v", a.Violations)
	}
}

func TestAnalyzerAckQuorumAcrossTerms(t *testing.T) {
	var b evb
	// Two accepts at the same index but in different terms do NOT form a
	// quorum: the index was overwritten by a conflict, and one store of each
	// version proves nothing.
	b.add(0, ClusterPG, -1, 1, NoCID, 0, 3).
		add(0, RaftAccept, -1, 1, 0, 5, 1).
		add(0, RaftAccept, -1, 1, 1, 5, 2).
		add(0, ClusterAck, -1, 1, 7, 100, 5<<32|0xabc)
	a := Analyze(b.evs)
	if !hasViolation(a, "ack-before-quorum") {
		t.Fatalf("cross-term accept set treated as a quorum: %v", a.Violations)
	}
}

func TestAnalyzerStaleReadAfterCommit(t *testing.T) {
	var b evb
	// A write to lba 100 is acked at index 10; a read issued afterwards is
	// served at index 5 — it predates the acked write it must observe.
	b.add(0, ClusterPG, -1, 1, NoCID, 0, 3).
		replicatedWrite(1, 10, 1, 100, 7, 0xabc).
		add(1, ClusterReadStart, -1, 1, 8, 100, 0).
		add(1, ClusterRead, -1, 1, 8, 100, 5<<32|0x111)
	a := Analyze(b.evs)
	if !hasViolation(a, "stale-read-after-commit") {
		t.Fatalf("stale read below the acked floor not flagged: %v", a.Violations)
	}
}

func TestAnalyzerReadBeforeAckNotStale(t *testing.T) {
	var b evb
	// The read was issued BEFORE the write was acked: serving it at a lower
	// index is legal (the operations are concurrent).
	b.add(0, ClusterPG, -1, 1, NoCID, 0, 3).
		add(0, ClusterReadStart, -1, 1, 8, 100, 0).
		replicatedWrite(1, 10, 1, 100, 7, 0xabc).
		add(1, ClusterRead, -1, 1, 8, 100, 5<<32|0x0)
	a := Analyze(b.evs)
	if hasViolation(a, "stale-read-after-commit") {
		t.Fatalf("concurrent read flagged as stale: %v", a.Violations)
	}
}

func TestAnalyzerCommitMonotonicity(t *testing.T) {
	var b evb
	b.add(0, RaftCommit, -1, 1, 0, 5, 0).
		add(0, RaftCommit, -1, 1, 0, 3, 0)
	a := Analyze(b.evs)
	if !hasViolation(a, "commit-monotonic") {
		t.Fatalf("commit regression not flagged: %v", a.Violations)
	}
}

func TestAnalyzerCommitResetAcrossRestart(t *testing.T) {
	var b evb
	// A crash-restart legitimately resets the volatile commit index.
	b.add(0, RaftCommit, -1, 1, 0, 5, 0).
		add(0, RaftRestart, -1, 1, 0, 0, 0).
		add(0, RaftCommit, -1, 1, 0, 2, 0)
	a := Analyze(b.evs)
	if hasViolation(a, "commit-monotonic") {
		t.Fatalf("post-restart commit flagged: %v", a.Violations)
	}
}

func TestAnalyzerApplyBeyondCommit(t *testing.T) {
	var b evb
	b.add(0, RaftCommit, -1, 1, 0, 5, 0).
		add(0, RaftApply, -1, 1, 0, 6, 0xabc)
	a := Analyze(b.evs)
	if !hasViolation(a, "apply-beyond-commit") {
		t.Fatalf("apply above commit not flagged: %v", a.Violations)
	}
}

func TestAnalyzerReadWithoutStart(t *testing.T) {
	var b evb
	b.add(0, ClusterPG, -1, 1, NoCID, 0, 3).
		add(1, ClusterRead, -1, 1, 8, 100, 5<<32|0x111)
	a := Analyze(b.evs)
	if !hasViolation(a, "read-chain") {
		t.Fatalf("read served without a ClusterReadStart not flagged: %v", a.Violations)
	}
}
