package fifo

import (
	"testing"

	"aeolia/internal/alloctest"
)

func TestOrderAcrossGrowth(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	// Interleave pushes and pops so the ring wraps before each growth.
	for round := 1; round <= 40; round++ {
		for i := 0; i < round; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < round/2; i++ {
			v, ok := q.Pop()
			if !ok || v != want {
				t.Fatalf("round %d: popped %d (ok %v), want %d", round, v, ok, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if v, _ := q.Pop(); v != want {
			t.Fatalf("drain: popped %d, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d elements, pushed %d", want, next)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on an empty queue reported an element")
	}
}

func TestResetDropsReferences(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 5; i++ {
		q.Push(new(int))
	}
	q.Pop()
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("%d elements after Reset", q.Len())
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still references an element after Reset", i)
		}
	}
}

// TestAllocsStandingDepth is the FIFO half of the walking-base bug: 10 000
// push/pop cycles over a standing depth of 3 allocate nothing once the ring
// has reached that depth. The slice idiom it replaced is measured alongside,
// so the test shows what it guards against.
func TestAllocsStandingDepth(t *testing.T) {
	const cycles = 10_000
	var q Queue[*int]
	x := new(int)
	for i := 0; i < 3; i++ {
		q.Push(x)
	}
	alloctest.AtMost(t, 0, cycles, func() {
		for i := 0; i < cycles; i++ {
			q.Push(x)
			q.Pop()
		}
	})

	walk := []*int{x, x, x}
	if got := testing.AllocsPerRun(20, func() {
		for i := 0; i < cycles; i++ {
			walk = append(walk, x)
			walk = walk[1:]
		}
	}); got == 0 {
		t.Fatal("the q = q[1:] idiom stopped allocating; this test no longer shows what the ring saves")
	}
}
