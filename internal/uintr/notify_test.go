package uintr_test

import (
	"testing"
	"time"

	"aeolia/internal/sim"
	"aeolia/internal/uintr"
)

// stubHook returns a fixed verdict for every notification.
type stubHook struct {
	v     uintr.NotifyVerdict
	calls int
}

func (h *stubHook) OnNotify(u *uintr.UPID, vector uint8) uintr.NotifyVerdict {
	h.calls++
	return h.v
}

func notifyRig(t *testing.T) (*sim.Engine, *uintr.UPID, *int) {
	t.Helper()
	e := sim.NewEngine(1, nil)
	raised := 0
	e.Core(0).SetIRQHandler(func(ctx *sim.IRQCtx, vec int) { raised++ })
	return e, &uintr.UPID{NV: 0xec, DestCPU: 0}, &raised
}

// TestNotifyHookDrop: a Drop verdict loses the notification but not the
// posted PIR bit — the recipient can still recover by polling the UPID.
func TestNotifyHookDrop(t *testing.T) {
	e, u, raised := notifyRig(t)
	h := &stubHook{v: uintr.NotifyVerdict{Drop: true}}
	u.Hook = h
	uintr.PostAndNotify(e, u, 4)
	if *raised != 0 {
		t.Fatal("dropped notification still raised the vector")
	}
	if u.PIR != 1<<4 {
		t.Fatal("drop must not clear the posted bit")
	}
	if u.NotifyDropped.Load() != 1 || h.calls != 1 {
		t.Fatalf("NotifyDropped = %d, hook calls = %d, want 1/1", u.NotifyDropped.Load(), h.calls)
	}
}

// TestNotifyHookDelay: a Delay verdict defers the raise into virtual time
// instead of losing it.
func TestNotifyHookDelay(t *testing.T) {
	e, u, raised := notifyRig(t)
	u.Hook = &stubHook{v: uintr.NotifyVerdict{Delay: 5 * time.Microsecond}}
	uintr.PostAndNotify(e, u, 4)
	if *raised != 0 {
		t.Fatal("delayed notification raised immediately")
	}
	e.Run(0)
	if *raised != 1 {
		t.Fatalf("raised = %d after engine run, want 1", *raised)
	}
	if u.NotifyDelayed.Load() != 1 {
		t.Fatalf("NotifyDelayed = %d, want 1", u.NotifyDelayed.Load())
	}
}

// TestNotifyHookDuplicates: a Duplicates verdict re-raises the vector; the
// extra notifications are spurious but harmless (PIR is recognized once).
func TestNotifyHookDuplicates(t *testing.T) {
	e, u, raised := notifyRig(t)
	u.Hook = &stubHook{v: uintr.NotifyVerdict{Duplicates: 2}}
	uintr.PostAndNotify(e, u, 4)
	e.Run(0)
	if *raised != 3 {
		t.Fatalf("raised = %d, want 3 (original + 2 duplicates)", *raised)
	}
	if u.NotifyDuped.Load() != 2 {
		t.Fatalf("NotifyDuped = %d, want 2", u.NotifyDuped.Load())
	}
}

// TestNotifyHookSNWins: suppression is checked before the hook — a
// suppressed notification never reaches fault injection.
func TestNotifyHookSNWins(t *testing.T) {
	e, u, raised := notifyRig(t)
	h := &stubHook{v: uintr.NotifyVerdict{}}
	u.Hook = h
	u.SN = true
	uintr.PostAndNotify(e, u, 4)
	if *raised != 0 || h.calls != 0 {
		t.Fatalf("SN'd notification reached hook (%d) or core (%d)", h.calls, *raised)
	}
}

// TestMaskedPostKeepsBitRaisesNothing: the receive port's mask-while-polling
// rule in miniature. A post under SN lands in the PIR, raises nothing and
// counts as masked; clearing SN raises nothing by itself (the port re-checks
// its inbox instead); the next post notifies exactly once and its
// recognition drains both bits.
func TestMaskedPostKeepsBitRaisesNothing(t *testing.T) {
	e, u, raised := notifyRig(t)
	u.SN = true
	uintr.PostAndNotify(e, u, 4)
	if u.PIR != 1<<4 || *raised != 0 || u.ON {
		t.Fatalf("masked post: PIR %#x, raised %d, ON %v; want bit 4 posted and nothing raised", u.PIR, *raised, u.ON)
	}
	if u.NotifyMasked.Load() != 1 || u.NotifySent.Load() != 0 || u.NotifySuppressed.Load() != 0 {
		t.Fatalf("masked/sent/suppressed = %d/%d/%d, want 1/0/0",
			u.NotifyMasked.Load(), u.NotifySent.Load(), u.NotifySuppressed.Load())
	}
	u.SN = false
	e.Run(0)
	if *raised != 0 {
		t.Fatal("clearing SN raised a notification by itself")
	}
	uintr.PostAndNotify(e, u, 5)
	e.Run(0)
	if *raised != 1 || u.NotifySent.Load() != 1 || u.NotifyMasked.Load() != 1 {
		t.Fatalf("post after unmask: raised %d, sent %d, masked %d; want 1/1/1",
			*raised, u.NotifySent.Load(), u.NotifyMasked.Load())
	}
	if pir := u.TakePIR(); pir != 1<<4|1<<5 {
		t.Fatalf("recognition drained %#x, want both posted bits", pir)
	}
}
