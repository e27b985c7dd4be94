package trace

import "testing"

// Clean lease lifecycle: grant → data I/O → release.
func TestMDSLeaseCleanLifecycle(t *testing.T) {
	var b evb
	b.add(0, MDSLeaseGrant, -1, 0, 100, 5, 0).
		add(1000, MDSDataIO, -1, 1, 100, 5, 4096).
		add(2000, MDSDataIO, -1, 2, 100, 5, 4096).
		add(3000, MDSLeaseRelease, -1, 0, 100, 5, 0)
	a := Analyze(b.evs)
	if len(a.Violations) != 0 {
		t.Fatalf("clean lease lifecycle flagged: %v", a.Violations)
	}
}

// Data I/O citing a lease that was never granted is the core violation.
func TestMDSDataIOWithoutLease(t *testing.T) {
	var b evb
	b.add(0, MDSDataIO, -1, 1, 100, 5, 4096)
	if a := Analyze(b.evs); !hasViolation(a, "data-io-without-lease") {
		t.Fatal("data i/o under unknown lease not flagged")
	}
}

func TestMDSDataIOAfterRelease(t *testing.T) {
	var b evb
	b.add(0, MDSLeaseGrant, -1, 0, 100, 5, 0).
		add(1000, MDSLeaseRelease, -1, 0, 100, 5, 0).
		add(2000, MDSDataIO, -1, 1, 100, 5, 4096)
	if a := Analyze(b.evs); !hasViolation(a, "data-io-without-lease") {
		t.Fatal("data i/o under released lease not flagged")
	}
}

// I/O between a revoke being sent and its ack is legal (the holder has not
// seen the revoke yet); I/O after the revoke completes is not.
func TestMDSDataIOAroundRevoke(t *testing.T) {
	var b evb
	b.add(0, MDSLeaseGrant, -1, 0, 100, 5, 0).
		add(1000, MDSLeaseRevoke, -1, 0, 100, 5, 0).
		add(2000, MDSDataIO, -1, 1, 100, 5, 4096)
	if a := Analyze(b.evs); len(a.Violations) != 0 {
		t.Fatalf("in-flight-revoke data i/o flagged: %v", a.Violations)
	}
	b.add(3000, MDSLeaseRevoked, -1, 0, 100, 5, 0).
		add(4000, MDSDataIO, -1, 1, 100, 5, 4096)
	if a := Analyze(b.evs); !hasViolation(a, "data-io-without-lease") {
		t.Fatal("data i/o after revoke completion not flagged")
	}
}

func TestMDSLeaseLifecycleRules(t *testing.T) {
	var b evb
	b.add(0, MDSLeaseGrant, -1, 0, 100, 5, 0).
		add(1000, MDSLeaseGrant, -1, 0, 100, 5, 0)
	if a := Analyze(b.evs); !hasViolation(a, "lease-grant-once") {
		t.Fatal("double grant not flagged")
	}
	var r evb
	r.add(0, MDSLeaseRelease, -1, 0, 200, 5, 0)
	if a := Analyze(r.evs); !hasViolation(a, "lease-lifecycle") {
		t.Fatal("release without grant not flagged")
	}
	var v evb
	v.add(0, MDSLeaseGrant, -1, 0, 300, 5, 0).
		add(1000, MDSLeaseRevoked, -1, 0, 300, 5, 0)
	if a := Analyze(v.evs); !hasViolation(a, "lease-lifecycle") {
		t.Fatal("revoke completion without a sent revoke not flagged")
	}
}

// Clean rename: destination linked, then source unlinked, then done.
func TestMDSRenameCleanOrder(t *testing.T) {
	var b evb
	b.add(0, MDSRenameLink, -1, 1, 7, 5, 0).
		add(1000, MDSRenameUnlink, -1, 0, 7, 5, 0).
		add(2000, MDSRenameDone, -1, 0, 7, 5, 0)
	a := Analyze(b.evs)
	if len(a.Violations) != 0 {
		t.Fatalf("clean rename flagged: %v", a.Violations)
	}
}

// Unlinking the source before the destination is linked makes the file
// momentarily invisible — the visibility violation.
func TestMDSRenameInvisibleWindow(t *testing.T) {
	var b evb
	b.add(0, MDSRenameUnlink, -1, 0, 7, 5, 0).
		add(1000, MDSRenameLink, -1, 1, 7, 5, 0).
		add(2000, MDSRenameDone, -1, 0, 7, 5, 0)
	if a := Analyze(b.evs); !hasViolation(a, "rename-visibility") {
		t.Fatal("unlink-before-link not flagged")
	}
}

func TestMDSRenameIncomplete(t *testing.T) {
	var b evb
	b.add(0, MDSRenameLink, -1, 1, 7, 5, 0).
		add(2000, MDSRenameDone, -1, 0, 7, 5, 0)
	if a := Analyze(b.evs); !hasViolation(a, "rename-visibility") {
		t.Fatal("done without unlink not flagged")
	}
}

func TestMDSRevokeUnknownLease(t *testing.T) {
	var b evb
	b.add(0, MDSLeaseRevoke, -1, 0, 400, 5, 0)
	if a := Analyze(b.evs); !hasViolationMsg(a, "lease-lifecycle", "revoke sent for unknown lease") {
		t.Fatalf("revoke of an unknown lease not flagged: %v", a.Violations)
	}
}

func TestMDSRenameTwice(t *testing.T) {
	var l evb
	l.add(0, MDSRenameLink, -1, 1, 7, 5, 0).
		add(500, MDSRenameLink, -1, 1, 7, 5, 0).
		add(1000, MDSRenameUnlink, -1, 0, 7, 5, 0).
		add(2000, MDSRenameDone, -1, 0, 7, 5, 0)
	if a := Analyze(l.evs); !hasViolationMsg(a, "rename-visibility", "destination linked twice") {
		t.Fatalf("double link not flagged: %v", a.Violations)
	}
	var d evb
	d.add(0, MDSRenameLink, -1, 1, 7, 5, 0).
		add(1000, MDSRenameUnlink, -1, 0, 7, 5, 0).
		add(2000, MDSRenameDone, -1, 0, 7, 5, 0).
		add(3000, MDSRenameDone, -1, 0, 7, 5, 0)
	if a := Analyze(d.evs); !hasViolationMsg(a, "rename-visibility", "completed twice") {
		t.Fatalf("double done not flagged: %v", a.Violations)
	}
}
