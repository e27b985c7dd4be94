// Package machine assembles a complete simulated Aeolia testbed: engine,
// EEVDF scheduler, NVMe device, AeoKern, and the privileged launch path for
// processes with trusted entities. Benchmarks, examples, and tests build on
// it instead of wiring the substrates by hand.
package machine

import (
	"fmt"
	"time"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeokern"
	"aeolia/internal/kernfs"
	"aeolia/internal/mpk"
	"aeolia/internal/nvme"
	"aeolia/internal/sched"
	"aeolia/internal/sim"
	"aeolia/internal/timing"
)

// TrustedEntityName is the registered name of the Aeolia trusted-entity
// bundle (AeoDriver + the AeoFS trust layer share one protection domain).
const TrustedEntityName = "aeolia-trusted"

// trustedImage stands in for the linked trusted-entity code; the registry
// holds its signature and the launcher verifies it at process launch.
var trustedImage = []byte("aeolia-trusted-entities image v1: aeodriver + aeofs-trust-layer")

// Machine is a fully wired simulated host.
type Machine struct {
	Eng   *sim.Engine
	Sched *sched.EEVDF
	Dev   *nvme.Device
	Kern  *aeokern.Kernel
}

// New builds a machine with the given core count and device configuration.
func New(cores int, devCfg nvme.Config) *Machine {
	s := sched.NewEEVDF()
	eng := sim.NewEngine(cores, s)
	dev := nvme.NewDevice(eng, devCfg)
	kern := aeokern.New(eng, s, dev)
	kern.Registry.Register(TrustedEntityName, mpk.Sign(trustedImage))
	return &Machine{Eng: eng, Sched: s, Dev: dev, Kern: kern}
}

// Process is a launched Aeolia process: kernel identity, trusted-entity
// gate, and its AeoDriver instance.
type Process struct {
	Proc   *aeokern.Process
	Gate   *mpk.Gate
	Driver *aeodriver.Driver
}

// stack is one named configuration of the evaluation: the AeoDriver
// configuration its process opens, whether it pays Aeolia's trusted-entry
// toll (only Aeolia's rows do: a kernel path, a polling library or uFS has
// no protection-key gate, §1/§7.3), and how BuildFS mounts a file system.
type stack struct {
	driver aeodriver.Config
	toll   bool
	mount  func(m *Machine, fi *FSInstance, opt FSOptions) error // nil for a block stack
}

// stacks is every configuration the evaluation names.
var stacks = map[string]stack{
	// Block stacks (§2, §9.1): how a completion reaches the waiter, what
	// the waiter does meanwhile, and the kernel path a submission crosses.
	// posix is pread/pwrite with O_DIRECT; iou_dfl is io_uring's default
	// (interrupts, eager sleep); iou_opt adds the active-checking policy;
	// iou_poll is IORING_SETUP_IOPOLL; spdk is a polling userspace driver.
	"posix":    {driver: aeodriver.Config{Mode: aeodriver.ModeKernelNative, Policy: aeodriver.PolicyAlwaysBlock, KernelCrossing: timing.POSIXSyscall, QueueDepth: 64}},
	"iou_dfl":  {driver: aeodriver.Config{Mode: aeodriver.ModeKernelNative, Policy: aeodriver.PolicyAlwaysBlock, KernelCrossing: timing.KernelSubmit, QueueDepth: 64}},
	"iou_opt":  {driver: aeodriver.Config{Mode: aeodriver.ModeKernelNative, Policy: aeodriver.PolicyCoordinated, KernelCrossing: timing.KernelSubmit, QueueDepth: 64}},
	"iou_poll": {driver: aeodriver.Config{Mode: aeodriver.ModePoll, KernelCrossing: timing.KernelSubmit, QueueDepth: 64}},
	"spdk":     {driver: aeodriver.Config{Mode: aeodriver.ModePoll, QueueDepth: 64}},
	"aeolia":   {driver: aeodriver.Config{Mode: aeodriver.ModeUserInterrupt}, toll: true},
	// File systems (§9.2-§9.4).
	string(KindExt4):  {driver: aeodriver.Config{Mode: aeodriver.ModeKernelNative}, mount: kernel(kernfs.Ext4)},
	string(KindF2FS):  {driver: aeodriver.Config{Mode: aeodriver.ModeKernelNative}, mount: kernel(kernfs.F2FS)},
	string(KindAeoFS): {driver: aeodriver.Config{Mode: aeodriver.ModeUserInterrupt}, toll: true, mount: adapter},
	string(KindUFS):   {driver: aeodriver.Config{Mode: aeodriver.ModePoll}, mount: ufs},
	// AeoFS under Fig. 17's completion designs, and without the toll (abl1).
	"+poll":         {driver: aeodriver.Config{Mode: aeodriver.ModePoll}, toll: true, mount: adapter},
	"+k_yield":      {driver: aeodriver.Config{Mode: aeodriver.ModeUserInterrupt, Policy: aeodriver.PolicyAlwaysBlock}, toll: true, mount: adapter},
	"+k_intr":       {driver: aeodriver.Config{Mode: aeodriver.ModeKernelInterrupt, Policy: aeodriver.PolicyAlwaysBlock}, toll: true, mount: adapter},
	"aeofs-no-toll": {driver: aeodriver.Config{Mode: aeodriver.ModeUserInterrupt}, mount: adapter},
}

// Launch launches a process that pays Aeolia's toll, with AeoDriver cfg.
func (m *Machine) Launch(name string, part aeokern.Partition, cfg aeodriver.Config) (*Process, error) {
	return m.launch(name, part, cfg, true)
}

// LaunchStack launches the process of the named row of the stack table
// over the whole device (BuildFS mounts a file-system row).
func (m *Machine) LaunchStack(name string) (*Process, error) {
	s, ok := stacks[name]
	if !ok {
		return nil, fmt.Errorf("machine: unknown stack %q", name)
	}
	return m.launch(name, aeokern.Partition{Start: 0, Blocks: m.Dev.NumBlocks(), Writable: true}, s.driver, s.toll)
}

// launch is the one launch path. Only a process that pays the toll links
// Aeolia's trusted entities; the launcher verifies them, scans the binary,
// and charges mpk.TrustedEntryCost per call through a gate into them.
func (m *Machine) launch(name string, part aeokern.Partition, cfg aeodriver.Config, toll bool) (*Process, error) {
	proc, err := m.Kern.NewProcess(name, part)
	if err != nil {
		return nil, err
	}
	var linked []mpk.TrustedImage
	if toll {
		linked = []mpk.TrustedImage{{Name: TrustedEntityName, Image: trustedImage}}
	}
	launcher := mpk.NewLauncher(m.Kern.Sys, m.Kern.Registry)
	// The untrusted application binary: anything without a WRPKRU.
	binary := []byte(fmt.Sprintf("untrusted application %q", name))
	thread, gate, err := launcher.Launch(binary, linked)
	if err != nil {
		return nil, err
	}
	proc.Thread = thread
	drv, err := aeodriver.Open(m.Kern, proc, gate, cfg)
	if err != nil {
		return nil, err
	}
	return &Process{Proc: proc, Gate: gate, Driver: drv}, nil
}

// Run drives the simulation until the event queue drains or the horizon
// passes (0 = no horizon). It returns the final virtual time.
func (m *Machine) Run(until time.Duration) time.Duration {
	return m.Eng.Run(until)
}
