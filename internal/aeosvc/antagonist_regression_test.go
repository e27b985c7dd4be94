package aeosvc_test

// Antagonist regression tests: each antagonist running alone must not push
// the urgent tenant's p99.9 completion latency over the request-level SLO
// bound while enforcement is on — and must push it over the bound with
// enforcement off, proving the antagonist actually bites. A regression in
// either direction is meaningful: the first means the QoS stack stopped
// protecting, the second means the adversarial load silently degraded into
// background noise.

import (
	"testing"
	"time"

	"aeolia/internal/aeofs"
	"aeolia/internal/aeosvc"
	"aeolia/internal/attack"
	"aeolia/internal/machine"
	"aeolia/internal/netsim"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
	"aeolia/internal/uintr"
	"aeolia/internal/workload"
)

// antagonistSLOBound is the urgent tenant's request-level p99.9 budget the
// enforced cells must meet and the unenforced cells must blow.
const antagonistSLOBound = 200 * time.Microsecond

const regressionSeed = 211

var regressionTenants = []aeosvc.TenantConfig{
	{ID: 0, Weight: 1, Class: uintr.ClassUrgent},
	{ID: 1, Weight: 1, MaxBacklog: 64, Class: uintr.ClassNormal},
	{ID: 2, Weight: 1, OpsPerSec: 3000, Burst: 8, MaxBacklog: 16, Class: uintr.ClassBulk},
}

// urgentTailUnder boots the fig_slo rig (6 cores: dispatcher, two workers,
// two client cores, one antagonist core), runs the named antagonist against
// four QD1 urgent readers, and returns the urgent tenant's p99.9.
func urgentTailUnder(t *testing.T, antagonist string, enforce bool) time.Duration {
	t.Helper()
	crs := urgentCellResults(t, antagonist, enforce)
	var lat workload.LatencyRecorder
	for i, cr := range crs {
		if i >= 4 { // clients 0-3 are the urgent tenant
			continue
		}
		for _, d := range cr.Samples {
			lat.Record(d)
		}
	}
	if lat.Count() == 0 {
		t.Fatal("no urgent samples recorded")
	}
	return lat.Percentile(99.9)
}

// urgentCellResults boots the rig and returns each client's raw results
// (clients 0-3 urgent, 4-5 normal).
func urgentCellResults(t *testing.T, antagonist string, enforce bool) []*aeosvc.ClientResult {
	t.Helper()
	m := machine.New(6, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 15})
	defer m.Eng.Shutdown()

	// MaxDelay is deliberately long (the off cell pays it in full): the
	// enforced cell grades it per class, so urgent bypasses, normal waits a
	// fraction, and only bulk waits out the whole aggregation window.
	coalesce := nvme.Coalescing{MaxEvents: 8, MaxDelay: 250 * time.Microsecond}
	if enforce {
		coalesce.UrgentMax = uint8(uintr.ClassUrgent) + 1
		coalesce.ClassDelays = nvme.GradedDelays(coalesce.MaxDelay, int(uintr.NumClasses))
	}
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{
		QoS:      enforce,
		Coalesce: coalesce,
		// Flusher on the antagonist core: on core 0 its first pass over
		// the clients' prefill dirt contends with the rx dispatcher and
		// pollutes every client's first measured ops.
		Cache: aeofs.CacheConfig{CacheBytes: 1 << 18, MaxReadahead: 8, FlusherCore: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	fab := netsim.New(m.Eng, regressionSeed)
	link := netsim.Config{
		Latency:     5 * time.Microsecond,
		BytesPerSec: 10e9,
		Jitter:      2 * time.Microsecond,
		QueueDepth:  256,
	}
	srv := aeosvc.NewServer(fab, m.Kern, fi.Proc.Gate, fi.FS, aeosvc.Config{
		Admission: enforce,
		QoS:       enforce,
		IO:        fi.Proc.Driver,
		Tenants:   regressionTenants,
	})
	srv.Start(m.Eng.Core(0), []*sim.Core{m.Eng.Core(1), m.Eng.Core(2)})

	// Four QD1 urgent readers (the measured tenant) plus two QD2 normal
	// mixed clients: the background load keeps the workers busy, which is
	// what lets a CPU hog claim scheduler share on a worker core at all.
	type cliSpec struct {
		tenant   uint16
		class    uintr.Class
		qd, ops  int
		readFrac float64
	}
	specs := []cliSpec{
		{0, uintr.ClassUrgent, 1, 250, 1.0}, {0, uintr.ClassUrgent, 1, 250, 1.0},
		{0, uintr.ClassUrgent, 1, 250, 1.0}, {0, uintr.ClassUrgent, 1, 250, 1.0},
		// The normal background outlasts the urgent clients so the
		// workers stay busy for the whole measured window — an idle
		// worker wins every wakeup preemption and no antagonist bites.
		{1, uintr.ClassNormal, 8, 2000, 0.9}, {1, uintr.ClassNormal, 8, 2000, 0.9},
	}
	clients := make([]*aeosvc.Client, len(specs))
	for i, sp := range specs {
		c := aeosvc.NewClient(fab, "svc", aeosvc.ClientConfig{
			ID:        i,
			Tenant:    sp.tenant,
			Class:     uint8(sp.class),
			QD:        sp.qd,
			Ops:       sp.ops,
			WarmupOps: 20,
			ReadFrac:  sp.readFrac,
			IOBytes:   4096,
			Seed:      regressionSeed*1000 + int64(i),
		})
		fab.Connect(c.EndpointName(), "svc", link)
		fab.Connect("svc", c.EndpointName(), link)
		clients[i] = c
	}

	var ants []*attack.Antagonist
	switch antagonist {
	case "cpu_hog":
		ants = append(ants, attack.SpawnCPUHog(m.Eng, m.Eng.Core(1)))
	case "io_flood":
		ants = append(ants, attack.SpawnIOFlood(m.Eng, fab, "svc", m.Eng.Core(5), attack.FloodConfig{
			Tenant: 2,
			Seed:   regressionSeed * 7,
			Link:   link,
		}))
	case "cache_thrash":
		// Large thrash reads: every one is a multi-page device burst ahead
		// of the urgent tenant's (evicted, hence missing) reads.
		ants = append(ants, attack.SpawnCacheThrasher(m.Eng, m.Eng.Core(5), fi.FS, attack.ThrashConfig{
			IOBytes: 1 << 14,
			Seed:    regressionSeed * 13,
		}))
	default:
		t.Fatalf("unknown antagonist %q", antagonist)
	}
	// Let antagonist setup writes flush before the measured window opens.
	m.Eng.Run(m.Eng.Now() + 50*time.Millisecond)

	spec := &aeosvc.LoadSpec{
		Eng:     m.Eng,
		Clients: clients,
		CoreFor: func(i int) *sim.Core { return m.Eng.Core(3 + i%2) },
		Horizon: 30 * time.Second,
		Stop: func() {
			for _, a := range ants {
				a.Stop()
			}
			m.Eng.Run(m.Eng.Now() + 5*time.Millisecond)
			srv.Stop()
		},
	}
	_, crs, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	return crs
}

// TestAntagonistsHeldBySLOEnforcement drives each antagonist alone with the
// QoS stack on and requires the urgent tenant's p99.9 to stay inside the
// SLO bound.
func TestAntagonistsHeldBySLOEnforcement(t *testing.T) {
	if testing.Short() {
		t.Skip("full service rig per antagonist; skipped in -short")
	}
	for _, antagonist := range []string{"cpu_hog", "io_flood", "cache_thrash"} {
		antagonist := antagonist
		t.Run(antagonist, func(t *testing.T) {
			tail := urgentTailUnder(t, antagonist, true)
			if tail > antagonistSLOBound {
				t.Fatalf("urgent p99.9 = %v under %s with enforcement on — SLO bound is %v",
					tail, antagonist, antagonistSLOBound)
			}
			t.Logf("urgent p99.9 = %v under %s (bound %v)", tail, antagonist, antagonistSLOBound)
		})
	}
}

// TestAntagonistsBiteWithoutEnforcement is the potency check: with the QoS
// stack off, each antagonist alone must push the urgent tenant's p99.9 past
// the SLO bound. If this fails the antagonist has regressed into background
// noise and the enforcement test above proves nothing.
func TestAntagonistsBiteWithoutEnforcement(t *testing.T) {
	if testing.Short() {
		t.Skip("full service rig per antagonist; skipped in -short")
	}
	for _, antagonist := range []string{"cpu_hog", "io_flood", "cache_thrash"} {
		antagonist := antagonist
		t.Run(antagonist, func(t *testing.T) {
			tail := urgentTailUnder(t, antagonist, false)
			if tail <= antagonistSLOBound {
				t.Fatalf("urgent p99.9 = %v under %s with enforcement off — the antagonist no longer bites (bound %v)",
					tail, antagonist, antagonistSLOBound)
			}
			t.Logf("urgent p99.9 = %v under %s without enforcement (bound %v)", tail, antagonist, antagonistSLOBound)
		})
	}
}
