package main

import (
	"math"
	"sort"
	"time"
)

// rng is splitmix64: tiny, seedable, and the same on every Go version, so a
// seed names one op stream forever.
type rng struct{ s uint64 }

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newRNG(seed uint64, stream int) *rng {
	return &rng{s: mix64(seed ^ uint64(stream+1)*0xa24baed4963ee407)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// pct draws a value in [0, 100).
func (r *rng) pct() int { return r.intn(100) }

// fnv is FNV-1a over 64-bit words: the op-stream fingerprint.
type fnv uint64

const fnvOffset fnv = 14695981039346656037

func (h fnv) add(words ...uint64) fnv {
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h = (h ^ fnv(w&0xff)) * 1099511628211
			w >>= 8
		}
	}
	return h
}

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// sample set of whole nanoseconds, in nanoseconds. It is the nearest-rank
// value refined inside its tie group: the n samples that share the value v
// are taken to lie evenly across [v-0.5, v+0.5), as the clock's rounding
// put them there. Virtual latencies are quantised to 1 ns and often tightly
// clustered (blk_qd1's whole distribution is 142 values wide), so without
// this the percentile could not tell two runs apart that differ in how many
// samples sit at the median value.
func percentile(sorted []time.Duration, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := p / 100 * float64(n) // samples at or below the percentile
	i := min(max(int(math.Ceil(rank)), 1), n) - 1
	v := sorted[i]
	lo := sort.Search(n, func(k int) bool { return sorted[k] >= v })
	hi := sort.Search(n, func(k int) bool { return sorted[k] > v })
	frac := (rank - float64(lo)) / float64(hi-lo)
	return float64(v) - 0.5 + min(max(frac, 0), 1)
}

// tailLadder is the set of tail percentiles the benchmark may report, in
// ascending order, each with the share of samples beyond it as 1/den.
var tailLadder = []struct {
	pct float64
	den int
}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// highestPercentile returns the highest rung of tailLadder that still has at
// least ten samples beyond it in n pooled samples (0 if none does): a tail
// estimated from fewer samples is noise.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, r := range tailLadder {
		if n/r.den >= 10 {
			best = r.pct
		}
	}
	return best
}

// poolSorted pools several repetitions' samples into one ascending slice.
func poolSorted(reps ...[]time.Duration) []time.Duration {
	n := 0
	for _, r := range reps {
		n += len(r)
	}
	out := make([]time.Duration, 0, n)
	for _, r := range reps {
		out = append(out, r...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// nsToUs converts a percentile in nanoseconds to microseconds.
func nsToUs(ns float64) float64 { return ns / 1e3 }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
