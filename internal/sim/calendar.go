package sim

import "container/heap"

// calendar is the event queue: one binary min-heap of pending events
// ordered by (at, seq). Sequence numbers are global and unique, so the pop
// order is total and a run is deterministic.
type calendar struct {
	h eventHeap
}

func (c *calendar) len() int { return len(c.h) }

// push inserts ev.
func (c *calendar) push(ev *Event) { heap.Push(&c.h, ev) }

// peek returns the minimum pending event without removing it.
func (c *calendar) peek() *Event {
	if len(c.h) == 0 {
		return nil
	}
	return c.h[0]
}

// pop removes and returns the minimum pending event.
func (c *calendar) pop() *Event {
	if len(c.h) == 0 {
		return nil
	}
	return heap.Pop(&c.h).(*Event)
}

// remove deletes ev (it must be pending).
func (c *calendar) remove(ev *Event) { heap.Remove(&c.h, ev.index) }

// eventHeap is a binary min-heap of events ordered by (at, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
