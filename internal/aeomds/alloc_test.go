package aeomds

import (
	"testing"
	"time"

	"aeolia/internal/alloctest"
	"aeolia/internal/netsim"
	"aeolia/internal/sched"
	"aeolia/internal/sim"
)

// metaLoop runs a one-shard service on core 0 and one client on core 1. The
// client creates /d/f and then runs op back to back, counting round trips.
func metaLoop(t *testing.T, op func(env *sim.Env, c *Client) error) (*sim.Engine, *Service, *int) {
	eng := sim.NewEngine(2, sched.NewEEVDF())
	t.Cleanup(eng.Shutdown)
	fab := netsim.New(eng, 1)
	svc := NewService(fab, Config{Shards: 1, DataNodes: 1})
	svc.Start([]*sim.Core{eng.Core(0)})
	c := NewClient(fab, ClientConfig{ID: 0, Shards: 1})
	fab.Connect(ClientEndpoint(0), ShardEndpoint(0), testLink)
	fab.Connect(ShardEndpoint(0), ClientEndpoint(0), testLink)
	trips := new(int)
	eng.Spawn("client", eng.Core(1), func(env *sim.Env) {
		err := c.Mkdir(env, "/d")
		if err == nil {
			err = c.Open(env, "/d/f", true, true)
		}
		if err == nil {
			err = c.Close(env, "/d/f")
		}
		for err == nil {
			if err = op(env, c); err == nil {
				*trips++
			}
		}
		t.Error(err)
	})
	return eng, svc, trips
}

// TestAllocsMetaRoundTrip: a steady-state metadata round trip allocates only
// the names the shard decodes from the request and, for an open, the
// layout's striping map. Request, reply and release frames come
// from the sending endpoints' free lists and go back once decoded; the
// client's layout and the shard's lease come from free lists too.
func TestAllocsMetaRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		max  float64
		op   func(env *sim.Env, c *Client) error
	}{
		// The shard's copy of "/d" ("f" is one byte: the runtime has it).
		{"lookup", 1, func(env *sim.Env, c *Client) error {
			_, err := c.Stat(env, "/d/f")
			return err
		}},
		// "/d" for the open and the release, and the open's striping map.
		{"open-close", 3, func(env *sim.Env, c *Client) error {
			if err := c.Open(env, "/d/f", false, false); err != nil {
				return err
			}
			return c.Close(env, "/d/f")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, svc, trips := metaLoop(t, tc.op)
			advance := func() { eng.Run(eng.Now() + 10*time.Microsecond) }
			alloctest.More(trips, 20, advance)() // every free list warm
			alloctest.AtMost(t, tc.max, 100, alloctest.More(trips, 100, advance))
			if err := svc.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
