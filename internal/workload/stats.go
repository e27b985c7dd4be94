// Package workload implements the paper's benchmark drivers: a fio-style
// I/O generator (block-level and file-level), the FXMARK metadata
// microbenchmarks, the four Filebench personalities of Table 7, and a
// swaptions-like compute kernel — all over virtual time.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// LatencyRecorder collects per-operation latencies.
type LatencyRecorder struct {
	samples []time.Duration
	sorted  bool
}

// Record adds one sample.
func (r *LatencyRecorder) Record(d time.Duration) {
	r.samples = append(r.samples, d)
	r.sorted = false
}

// Merge folds another recorder's samples in.
func (r *LatencyRecorder) Merge(o *LatencyRecorder) {
	r.samples = append(r.samples, o.samples...)
	r.sorted = false
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

func (r *LatencyRecorder) sort() {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100).
func (r *LatencyRecorder) Percentile(p float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.sort()
	idx := int(p / 100 * float64(len(r.samples)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.samples) {
		idx = len(r.samples) - 1
	}
	return r.samples[idx]
}

// Median returns the 50th percentile.
func (r *LatencyRecorder) Median() time.Duration { return r.Percentile(50) }

// P99 returns the 99th percentile.
func (r *LatencyRecorder) P99() time.Duration { return r.Percentile(99) }

// Max returns the maximum sample.
func (r *LatencyRecorder) Max() time.Duration { return r.Percentile(100) }

// Mean returns the average sample.
func (r *LatencyRecorder) Mean() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range r.samples {
		sum += s
	}
	return sum / time.Duration(len(r.samples))
}

// Result summarizes one benchmark run.
type Result struct {
	Name    string
	Ops     uint64
	Bytes   uint64
	Elapsed time.Duration
	Latency LatencyRecorder
}

// OpsPerSec returns throughput in operations/second of virtual time.
func (r *Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// MBps returns throughput in MB/s (1e6 bytes).
func (r *Result) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}

// GiBps returns throughput in GiB/s.
func (r *Result) GiBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / (1 << 30) / r.Elapsed.Seconds()
}

// KOpsPerSec returns throughput in kilo-operations/second.
func (r *Result) KOpsPerSec() float64 { return r.OpsPerSec() / 1e3 }

func (r *Result) String() string {
	return fmt.Sprintf("%s: %d ops in %v (%.0f ops/s, %.1f MB/s, p50=%v p99=%v)",
		r.Name, r.Ops, r.Elapsed, r.OpsPerSec(), r.MBps(), r.Latency.Median(), r.Latency.P99())
}

// Rand returns a seeded deterministic RNG for workloads.
func Rand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
