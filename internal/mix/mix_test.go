package mix

import (
	"hash/fnv"
	"testing"

	"aeolia/internal/alloctest"
)

// TestKnownAnswers pins both functions to the values every seeded stream
// in the repository was built on.
func TestKnownAnswers(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0, 0xe220a8397b1dcdaf},
		{1, 0x910a2dec89025cc1},
		{0x9e3779b97f4a7c15, 0x6e789e6aa1b965f4},
		{0xdeadbeefcafef00d, 0x901d4f652fb472cb},
		{^uint64(0), 0xe4d971771b652c20},
	} {
		if got := SplitMix64(c.in); got != c.want {
			t.Errorf("SplitMix64(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
	for _, c := range []struct {
		in   string
		want uint64
	}{
		{"", 0xcbf29ce484222325},
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
		{"net:drop:c0->svc", 0x81b159a1c386d6bb},
	} {
		if got := FNV1a64(c.in); got != c.want {
			t.Errorf("FNV1a64(%q) = %#x, want %#x", c.in, got, c.want)
		}
		h := fnv.New64a()
		h.Write([]byte(c.in))
		if h.Sum64() != c.want {
			t.Errorf("hash/fnv disagrees on %q", c.in)
		}
	}
}

// TestKnownAnswersFNV1a32 pins FNV1a32 to the values the cluster's replica
// hashes, ClusterAck/RaftApply aux values and goldens were built on.
func TestKnownAnswersFNV1a32(t *testing.T) {
	block := make([]byte, 4096)
	for i := range block {
		block[i] = byte(i * 7)
	}
	for _, c := range []struct {
		in   []byte
		want uint32
	}{
		{nil, 0x811c9dc5},
		{[]byte("a"), 0xe40c292c},
		{[]byte("foobar"), 0xbf9cf968},
		{[]byte("raft:apply"), 0x6e6fe070},
		{block, 0xc0944dc5},
	} {
		if got := FNV1a32(c.in); got != c.want {
			t.Errorf("FNV1a32(%.16q) = %#x, want %#x", c.in, got, c.want)
		}
		h := fnv.New32a()
		h.Write(c.in)
		if h.Sum32() != c.want {
			t.Errorf("hash/fnv disagrees on %.16q", c.in)
		}
	}
}

// TestAllocsFNV1a32: a replica hashes an applied block without allocating.
func TestAllocsFNV1a32(t *testing.T) {
	b := make([]byte, 4096)
	alloctest.AtMost(t, 0, 1, func() { FNV1a32(b) })
}

// TestAllocsFNV1a64: a dentry lookup hashes its name without allocating.
func TestAllocsFNV1a64(t *testing.T) {
	s := "some/dentry-name"
	alloctest.AtMost(t, 0, 1, func() { FNV1a64(s) })
}
