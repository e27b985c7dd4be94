package main

import (
	"sort"
	"time"
)

// span is one benchmark-side measurement around a call into a layer's public
// function, or around a whole multi-call op. Spans of one op share Op; Parent
// is the enclosing span's ID (0 = none).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Thread int           `json:"thread"`
	Op     int           `json:"op"`
	VStart time.Duration `json:"virt_start_ns"`
	VEnd   time.Duration `json:"virt_end_ns"`
	WStart time.Duration `json:"wall_start_ns"` // since the repetition began
	WEnd   time.Duration `json:"wall_end_ns"`
}

func (s span) dur() time.Duration { return s.VEnd - s.VStart }

// spanRec keeps spans in memory. A nil recorder records nothing and hands out
// -1, so that a caller can still tell a nested call (parent != 0) from a
// top-level one.
type spanRec struct {
	t0    time.Time
	spans []span
}

func (s *spanRec) open(parent int, layer, name string, thread, op int, now time.Duration) int {
	if s == nil {
		return -1
	}
	id := len(s.spans) + 1
	s.spans = append(s.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Thread: thread, Op: op, VStart: now, VEnd: -1, WStart: time.Since(s.t0)})
	return id
}

func (s *spanRec) close(id int, now time.Duration) {
	if s == nil {
		return
	}
	sp := &s.spans[id-1]
	sp.VEnd, sp.WEnd = now, time.Since(s.t0)
}

// interval is a half-open stretch of virtual time.
type interval struct{ lo, hi time.Duration }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func covered(lo, hi time.Duration, ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum time.Duration
	at := lo
	for _, iv := range ivs {
		a, b := iv.lo, iv.hi
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// selfTimes returns, for each span, its duration minus what its direct
// children (child spans and the extra intervals joined to it) cover.
func selfTimes(spans []span, joined map[int][]interval) map[int]time.Duration {
	kids := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.VStart, s.VEnd})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := append(kids[s.ID], joined[s.ID]...)
		out[s.ID] = s.dur() - covered(s.VStart, s.VEnd, ivs)
	}
	return out
}

// chainRef is a program-side causal chain (a driver command or a service
// request) reduced to what the join needs: who issued it and when.
type chainRef struct {
	thread int // generator thread, or -1 when no generator issued it
	lo, hi time.Duration
}

// joinChains attaches each chain to the innermost span of its issuing
// thread that contains it in virtual time. It returns, per span ID, the
// indices of its chains, and the indices of chains inside no span: those are
// background work (write-back, read-ahead, journal, another server's I/O).
func joinChains(spans []span, chains []chainRef) (bySpan map[int][]int, background []int) {
	byThread := map[int][]span{}
	for _, s := range spans {
		byThread[s.Thread] = append(byThread[s.Thread], s)
	}
	for _, ss := range byThread {
		sort.Slice(ss, func(i, j int) bool { return ss[i].VStart < ss[j].VStart })
	}
	bySpan = map[int][]int{}
	for ci, c := range chains {
		best := -1
		ss := byThread[c.thread]
		// First span starting after the chain begins; candidates lie before it.
		end := sort.Search(len(ss), func(i int) bool { return ss[i].VStart > c.lo })
		for i := end - 1; i >= 0; i-- {
			s := ss[i]
			if s.VEnd >= c.hi {
				if best < 0 || s.dur() < ss[best].dur() {
					best = i
				}
			}
			// A thread's top-level spans are disjoint and in order, so the
			// first one met scanning backwards is the only one that can
			// contain c; everything met before it is nested inside it.
			if s.Parent == 0 {
				break
			}
		}
		if c.thread < 0 || best < 0 {
			background = append(background, ci)
			continue
		}
		bySpan[ss[best].ID] = append(bySpan[ss[best].ID], ci)
	}
	return bySpan, background
}
