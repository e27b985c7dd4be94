// Package timing centralizes the calibrated cost model of the simulated
// testbed.
//
// Every constant below is taken from a number the Aeolia paper reports for
// its 128-core Xeon Platinum 8592 + Optane P5800X testbed, or derived from
// one by subtraction (the derivations are noted inline). All experiments run
// on virtual time, so these constants fully determine the simulated stacks'
// software paths; the device model in internal/nvme supplies the hardware
// side.
package timing

import "time"

// CPUGHz is the modeled core frequency used to convert the paper's
// cycle-denominated costs (WRPKRU 48 cycles, trusted-entry 85 cycles) into
// nanoseconds. 2.0 GHz approximates a Xeon Platinum 8592 without turbo
// (turbo is disabled in the paper's setup).
const CPUGHz = 2.0

// Cycles converts a cycle count into a duration at CPUGHz.
func Cycles(n int) time.Duration {
	return time.Duration(float64(n) / CPUGHz * float64(time.Nanosecond))
}

// Costs reported directly by the paper.
const (
	// UserInterrupt is the cost of delivering and handling one user
	// interrupt ("as fast as a regular interrupt, costing 0.6µs on our
	// machine", §4.1).
	UserInterrupt = 600 * time.Nanosecond

	// KernelInterrupt is the cost of a regular kernel interrupt
	// (Figure 3: "the interrupt mechanism itself incurs only 0.6µs").
	KernelInterrupt = 600 * time.Nanosecond

	// KernelBottomHalf is the kernel's post-interrupt completion work on
	// the io_uring path (footnote 2: "the remaining 0.3µs is due to kernel
	// scheduling bottom-half operations"; Figure 3 attributes ~0.4µs to
	// "different code execution paths"). We charge it on every kernel
	// interrupt completion.
	KernelBottomHalf = 300 * time.Nanosecond

	// WakeupTTWU is step ① of Figure 4: converting a sleeping task to
	// runnable costs 0.7µs.
	WakeupTTWU = 700 * time.Nanosecond

	// IdleExit is step ② of Figure 4: updating scheduling statistics
	// before leaving the idle task costs 0.4µs.
	IdleExit = 400 * time.Nanosecond

	// ContextSwitch is step ③ of Figure 4: scheduling and context
	// switching back to the woken task costs 0.7µs.
	ContextSwitch = 700 * time.Nanosecond

	// IPC is the per-crossing cost of application↔uFS communication
	// ("IPC still incurs excessive software overhead (e.g., 400ns)", §1).
	IPC = 400 * time.Nanosecond

	// TrustedEntry is the cost of entering an Aeolia trusted entity
	// ("Entering a trusted entity only requires 40ns", §3.3).
	TrustedEntry = 40 * time.Nanosecond
)

// Costs the paper reports in cycles, converted at CPUGHz as Cycles does
// (TestCycles pins each to its Cycles value).
const (
	// TrustedSwitch is the per-operation toll of the eager integrity
	// check's domain switch ("each operation pays an extra 85 cycles to
	// switch to the trusted entity", §1/§7.3).
	TrustedSwitch = 85 * time.Nanosecond / CPUGHz

	// WRPKRU is the cost of one protection-key register write ("around 48
	// cycles on our machine", §5).
	WRPKRU = 48 * time.Nanosecond / CPUGHz
)

// Derived software-path costs. These are fixed by the single-task 4KB read
// latencies of Figure 2 (iou_dfl 8.2µs, iou_opt 6.3µs, iou_poll 5.4µs,
// AeoDriver 4.8µs, SPDK 4.2µs) once the device model (see nvme) and the
// direct costs above are pinned:
//
//	SPDK    = dev(4K) + SPDKSoftware                         = 4.2µs
//	AeoDrv  = dev(4K) + SPDKSoftware + UserInterrupt         = 4.8µs
//	iouPoll = dev(4K) + SPDKSoftware + KernelSubmit          = 5.4µs
//	iouOpt  = iouPoll + KernelInterrupt + KernelBottomHalf   = 6.3µs
//	iouDfl  = iouOpt  + WakeupTTWU + IdleExit + ContextSwitch = 8.1µs (paper: 8.2µs)
const (
	// SPDKSoftware is the userspace submit+complete software cost of a
	// polling direct-access driver (ring manipulation, PRP setup,
	// completion parsing).
	SPDKSoftware = 650 * time.Nanosecond

	// KernelSubmit is the extra kernel-side submission cost of io_uring
	// over a direct userspace driver: syscall entry/exit, io_uring SQE
	// handling, the block layer, and the NVMe driver.
	KernelSubmit = 1200 * time.Nanosecond

	// POSIXSyscall is the extra per-call cost of the synchronous POSIX
	// read/write path over io_uring: one full syscall per I/O plus VFS
	// and page-cache-bypass (O_DIRECT) bookkeeping. Chosen so that POSIX
	// hits ~2x AeoDriver latency at 512B (Figure 10).
	POSIXSyscall = 2600 * time.Nanosecond

	// EventfdForward is the cost of forwarding a kernel interrupt to a
	// userspace waiter via eventfd, used by the +k_intr ablation in
	// Figure 17 (cf. LibPreemptible's report cited in §9.4).
	EventfdForward = 2100 * time.Nanosecond

	// SubmitCost and CompleteCost split SPDKSoftware into the
	// submission-side (PRP setup, SQE write, doorbell) and
	// completion-side (CQE parse, head doorbell) halves.
	SubmitCost   = 400 * time.Nanosecond
	CompleteCost = 250 * time.Nanosecond

	// SQEPrep and DoorbellWrite split SubmitCost into the per-command
	// half (PRP setup + SQE write) and the per-doorbell half (the MMIO
	// write, serializing on the uncore). SQEPrep + DoorbellWrite ==
	// SubmitCost, so a batch of N commands behind one doorbell costs
	// N*SQEPrep + DoorbellWrite instead of N*SubmitCost.
	SQEPrep       = 250 * time.Nanosecond
	DoorbellWrite = 150 * time.Nanosecond

	// HandlerExec is the execution cost of a userspace interrupt handler
	// body when it runs as an inserted stack frame (§6.1) — the delivery
	// half of UserInterrupt is avoided in that path.
	HandlerExec = 150 * time.Nanosecond

	// RingPrep and RingComplete are the per-command software costs of the
	// zero-copy ring datapath. RingPrep replaces SQEPrep when a command is
	// staged through a per-core single-producer ring whose slots carry
	// pre-registered pooled buffers: no per-command PRP list is built (the
	// buffer's DMA mapping is set up once at pool registration) and the SQE
	// lands in a pre-mapped slot with one cache-line write plus the atomic
	// index publication — the dominant SQEPrep costs (PRP setup, bounds
	// re-validation) disappear. RingComplete replaces CompleteCost on the
	// same path: completions are consumed from the lock-free CQ ring by
	// phase-bit inspection, the head index is published with one atomic
	// store, and the per-command head-doorbell MMIO is batched away, leaving
	// CQE parse + status propagation. Both remain strictly positive — the
	// ring does not make command handling free, it strips the per-command
	// setup the batched path still pays. TestRingPathCheaperIdentity pins
	// RingPrep < SQEPrep and RingComplete < CompleteCost.
	RingPrep     = 80 * time.Nanosecond
	RingComplete = 100 * time.Nanosecond
)

// SchedTick is the scheduler tick period (CONFIG_HZ=250 on the paper's
// Ubuntu kernel).
const SchedTick = 4 * time.Millisecond

// TimeSlice is the EEVDF base slice used by both the kernel model and the
// sched_ext policy (Linux base_slice_ns default ~2.8ms; we use 3ms).
const TimeSlice = 3 * time.Millisecond
