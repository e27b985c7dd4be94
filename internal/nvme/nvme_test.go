package nvme_test

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

func newDev(cfg nvme.Config) (*sim.Engine, *nvme.Device) {
	e := sim.NewEngine(0, nil)
	return e, nvme.NewDevice(e, cfg)
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 1024})
	qp, err := d.CreateQueuePair(32)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 512*3)
	for i := range src {
		src[i] = byte(i % 251)
	}
	wc, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpWrite, SLBA: 10, NLB: 3, Data: src})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(0)
	if !wc.Done() {
		t.Fatal("write not completed")
	}
	dst := make([]byte, 512*3)
	rc, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: 10, NLB: 3, Data: dst})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(0)
	if !rc.Done() {
		t.Fatal("read not completed")
	}
	if got := qp.Poll(0); len(got) != 2 {
		t.Fatalf("polled %d CQEs, want 2", len(got))
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("read data differs from written data")
	}
}

func TestUnwrittenBlocksReadZero(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 64})
	qp, _ := d.CreateQueuePair(8)
	dst := []byte{1, 2, 3}
	dst = make([]byte, 512)
	for i := range dst {
		dst[i] = 0xff
	}
	qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: 5, NLB: 1, Data: dst})
	e.Run(0)
	for _, b := range dst {
		if b != 0 {
			t.Fatal("unwritten block returned non-zero data")
		}
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 8})
	qp, _ := d.CreateQueuePair(8)
	buf := make([]byte, 512*4)
	qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: 6, NLB: 4, Data: buf})
	e.Run(0)
	ces := qp.Poll(0)
	if len(ces) != 1 || ces[0].Status != nvme.StatusLBARange {
		t.Fatalf("got %+v, want one LBA-range error", ces)
	}
}

func TestShortBufferRejected(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 8})
	qp, _ := d.CreateQueuePair(8)
	qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpWrite, SLBA: 0, NLB: 2, Data: make([]byte, 512)})
	e.Run(0)
	ces := qp.Poll(0)
	if len(ces) != 1 || ces[0].Status != nvme.StatusInvalidField {
		t.Fatalf("got %+v, want invalid-field error", ces)
	}
}

func TestReadLatencyMatchesModel(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 4096, NumBlocks: 1024})
	qp, _ := d.CreateQueuePair(8)
	buf := make([]byte, 4096)
	var comp *sim.Completion
	e.Schedule(0, func() {
		comp, _ = qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: 0, NLB: 1, Data: buf})
	})
	e.Run(0)
	want := nvme.P5800X().ServiceTime(nvme.OpRead, 4096)
	if d := comp.At() - want; d < -want/40 || d > want/40 {
		t.Fatalf("completion at %v, want %v (+-2.5%% jitter)", comp.At(), want)
	}
	// 4KB on the P5800X model must be ~3.55µs.
	if comp.At() < 3400*time.Nanosecond || comp.At() > 3700*time.Nanosecond {
		t.Fatalf("4KB read service time %v outside calibrated window", comp.At())
	}
}

func TestChannelParallelismAndBusCap(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 4096, NumBlocks: 1 << 16})
	qp, _ := d.CreateQueuePair(64)
	// Submit 12 concurrent 4KB reads: with 6 channels, the second batch
	// of 6 completes one service time after the first.
	comps := make([]*sim.Completion, 12)
	e.Schedule(0, func() {
		for i := range comps {
			buf := make([]byte, 4096)
			comps[i], _ = qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: uint64(i), NLB: 1, Data: buf})
		}
	})
	e.Run(0)
	svc := nvme.P5800X().ServiceTime(nvme.OpRead, 4096)
	within := func(got, want time.Duration) bool {
		d := got - want
		return d >= -want/20 && d <= want/20
	}
	if !within(comps[5].At(), svc) {
		t.Fatalf("6th completion at %v, want ~%v", comps[5].At(), svc)
	}
	if !within(comps[11].At(), 2*svc) {
		t.Fatalf("12th completion at %v, want ~%v", comps[11].At(), 2*svc)
	}
}

func TestInterruptCallbackOnCompletion(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 64})
	qp, _ := d.CreateQueuePair(8)
	var fires int
	qp.OnCompletion = func(q *nvme.QueuePair) {
		fires++
		if !q.HasCompletions() {
			t.Error("OnCompletion with empty CQ")
		}
	}
	buf := make([]byte, 512)
	qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: 0, NLB: 1, Data: buf})
	e.Run(0)
	if fires != 1 {
		t.Fatalf("OnCompletion fired %d times, want 1", fires)
	}
}

func TestSubmissionQueueFull(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 1024})
	qp, _ := d.CreateQueuePair(4)
	var errFull error
	for i := 0; i < 4; i++ {
		buf := make([]byte, 512)
		_, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: uint64(i), NLB: 1, Data: buf})
		if err != nil {
			errFull = err
		}
	}
	if errFull == nil {
		t.Fatal("expected SQ-full error at depth 4 with 4 submissions")
	}
	e.Run(0)
}

func TestQueuePairLimit(t *testing.T) {
	_, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 64})
	for i := 0; i < nvme.QueuePairLimit; i++ {
		if _, err := d.CreateQueuePair(4); err != nil {
			t.Fatalf("queue pair %d: %v", i, err)
		}
	}
	if _, err := d.CreateQueuePair(4); err == nil {
		t.Fatal("a queue pair past the limit was created")
	}
}

func TestFlushCompletes(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 64})
	qp, _ := d.CreateQueuePair(8)
	c, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpFlush})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(0)
	if !c.Done() {
		t.Fatal("flush did not complete")
	}
}

func TestPhaseBitAlternates(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 1024})
	qp, _ := d.CreateQueuePair(4)
	var phases []bool
	// Drive 8 commands through a depth-4 CQ, polling between batches.
	for batch := 0; batch < 2; batch++ {
		for i := 0; i < 4; i++ {
			buf := make([]byte, 512)
			if _, err := qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: uint64(i), NLB: 1, Data: buf}); err != nil {
				// depth-4 ring holds 3 in flight
				break
			}
			e.Run(0)
			for _, ce := range qp.Poll(0) {
				phases = append(phases, ce.Phase)
			}
		}
	}
	if len(phases) < 5 {
		t.Fatalf("too few completions: %d", len(phases))
	}
	// First wrap must flip the phase bit.
	sawFlip := false
	for i := 1; i < len(phases); i++ {
		if phases[i] != phases[i-1] {
			sawFlip = true
		}
	}
	if !sawFlip {
		t.Fatal("phase bit never flipped across CQ wrap")
	}
}

func TestPropertyRoundTripArbitraryData(t *testing.T) {
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 4096})
	qp, _ := d.CreateQueuePair(64)
	f := func(seed int64, blk uint16, n uint8) bool {
		nlb := uint32(n%8) + 1
		slba := uint64(blk) % (4096 - 8)
		src := make([]byte, int(nlb)*512)
		s := seed
		for i := range src {
			s = s*6364136223846793005 + 1442695040888963407
			src[i] = byte(s >> 56)
		}
		qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpWrite, SLBA: slba, NLB: nlb, Data: src})
		e.Run(0)
		dst := make([]byte, len(src))
		qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: slba, NLB: nlb, Data: dst})
		e.Run(0)
		qp.Poll(0)
		return bytes.Equal(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDurabilityTiming(t *testing.T) {
	// A read submitted before a write completes must not observe the
	// write (data moves at completion time).
	e, d := newDev(nvme.Config{BlockSize: 512, NumBlocks: 64})
	qp, _ := d.CreateQueuePair(8)
	src := bytes.Repeat([]byte{0xaa}, 512)
	dst := make([]byte, 512)
	e.Schedule(0, func() {
		qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpWrite, SLBA: 3, NLB: 1, Data: src})
	})
	// Read issued 1ns later: its own completion lands on another channel
	// at a similar time; since read base < write base it completes first
	// and must see zeros.
	e.Schedule(1, func() {
		qp.Submit(nvme.SubmissionEntry{Opcode: nvme.OpRead, SLBA: 3, NLB: 1, Data: dst})
	})
	e.Run(0)
	if dst[0] != 0 {
		t.Fatal("read completing before write observed its data")
	}
}
