package trace

import "testing"

// A clean page evicted while a command on its block is in flight: the CQE
// would land in a buffer the cache no longer owns. Once the command is
// consumed, the same eviction is legal.
func TestAnalyzerEvictWhileInflight(t *testing.T) {
	var b evb
	b.add(0, SQEPrep, -1, 1, 1, 40, 4).
		add(100, CacheEvict, -1, -1, 0, 42, 0)
	if a := Analyze(b.evs); !hasViolation(a, "evict-while-inflight") {
		t.Fatalf("clean evict inside an in-flight command not flagged: %v", a.Violations)
	}

	var c evb
	c.fullChain(0, 1, 1).
		add(9000, CacheEvict, -1, -1, 0, 7, 0)
	if a := Analyze(c.evs); len(a.Violations) != 0 {
		t.Fatalf("clean evict after the command completed flagged: %v", a.Violations)
	}
}
