package aeofs

import (
	"fmt"
	"testing"
)

// TestPageLifecycleEdges walks every (from, to) pair of page states: the
// lifecycle's edges move the page and the mount's dirty bytes, every other
// pair panics and leaves both alone.
func TestPageLifecycleEdges(t *testing.T) {
	legal := map[[2]pageState]bool{
		{filling, clean}:  true,
		{filling, failed}: true,
		{filling, doomed}: true,
		{clean, dirty}:    true,
		{dirty, clean}:    true,
		{failed, clean}:   true,
		{failed, dirty}:   true,
	}
	for from := range numPageStates {
		for to := range numPageStates {
			t.Run(fmt.Sprintf("%v-%v", from, to), func(t *testing.T) {
				cm := newCacheManager(nil, CacheConfig{})
				if from == dirty {
					cm.stats.DirtyBytes = BlockSize
				}
				cp := &cachePage{state: from}
				want, wantDirty := from, cm.stats.DirtyBytes
				ok := legal[[2]pageState{from, to}]
				if ok {
					want, wantDirty = to, 0
					if to == dirty {
						wantDirty = BlockSize
					}
				}
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					cp.to(cm, to)
					return false
				}()
				if panicked == ok {
					t.Fatalf("%v → %v: panicked = %v on an edge whose legality is %v", from, to, panicked, ok)
				}
				if cp.state != want || cm.stats.DirtyBytes != wantDirty {
					t.Fatalf("%v → %v: page %v with %d dirty bytes, want %v with %d",
						from, to, cp.state, cm.stats.DirtyBytes, want, wantDirty)
				}
			})
		}
	}
}
