// Package mix holds the deterministic mixing functions every seeded stream
// and content hash in the repository is built from: the splitmix64
// finalizer, which turns a (seed, key, counter) word into an independent
// uniform draw; FNV-1a-64, which keys a draw or a bucket by name; and
// FNV-1a-32, which fingerprints a replica's payload bytes. Goldens and load
// fingerprints pin their outputs, so none may change.
package mix

// SplitMix64 is the splitmix64 output function applied to the state x
// (Steele, Lea and Flood, 2014).
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FNV1a64 is the 64-bit FNV-1a hash of s. It allocates nothing.
func FNV1a64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// FNV1a32 is the 32-bit FNV-1a hash of b. It allocates nothing.
func FNV1a32(b []byte) uint32 {
	h := uint32(0x811c9dc5)
	for _, c := range b {
		h ^= uint32(c)
		h *= 0x01000193
	}
	return h
}
