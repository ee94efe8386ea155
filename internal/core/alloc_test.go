package core

import (
	"math/rand"
	"slices"
	"testing"

	"hypercube/internal/topology"
)

// allocWorkload is the fixed workload of the allocation ceilings: a
// 10-cube multicast to 512 seeded destinations.
func allocWorkload() (topology.Cube, []topology.NodeID) {
	return topology.New(10, topology.HighToLow), randomDests(rand.New(rand.NewSource(7)), 10, 0, 512)
}

// Build allocates a fixed number of objects per tree, independent of the
// destination count: the relative chain, the tree, its Order and Sends
// slices, the contiguous send array and the job queue; the throwaway
// workspace they are built in stays on the stack. A per-send or per-sender allocation, or a
// node-keyed map, creeping back in trips these ceilings.
func TestBuildAllocCeilings(t *testing.T) {
	c, dests := allocWorkload()
	for _, tc := range []struct {
		a    Algorithm
		want float64
	}{
		{UCube, 6},
		{Maxport, 6},
		{Combine, 6},
		{WSort, 6},
	} {
		got := testing.AllocsPerRun(20, func() { treeSink = Build(c, tc.a, 0, dests) })
		if got > tc.want {
			t.Errorf("Build(%v) allocates %v objects per call, ceiling %v", tc.a, got, tc.want)
		}
	}
}

// NewSchedule allocates its result (schedule, Unicasts, the Order-aligned
// receive steps) and the packed sort keys plus, for the all-port model, a
// fixed set of scratch tables, including one arc-stamp table sized by the
// tree's paths; nothing per step, and no node-keyed map.
func TestNewScheduleAllocCeilings(t *testing.T) {
	c, dests := allocWorkload()
	tr := Build(c, WSort, 0, dests)
	for _, tc := range []struct {
		pm   PortModel
		want float64
	}{
		{OnePort, 4},
		{AllPort, 9},
	} {
		got := testing.AllocsPerRun(20, func() { scheduleSink = NewSchedule(tr, tc.pm) })
		if got > tc.want {
			t.Errorf("NewSchedule(%v) allocates %v objects per call, ceiling %v", tc.pm, got, tc.want)
		}
	}
}

// The sinks keep what the ceilings' calls return, so each result escapes
// as it does for real callers and the ceilings count it.
var (
	treeSink     *Tree
	scheduleSink *Schedule
)

// Build hands out payloads that alias one chain. Each must still hold
// exactly the recipient's sub-chain — the same elements the distributed
// protocol computes locally, independently of Build — and be capped at its
// length, so that a consumer's append reallocates instead of overwriting a
// sibling's sub-chain.
func TestPayloadsAreCappedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, res := range []topology.Resolution{topology.HighToLow, topology.LowToHigh} {
		c := topology.New(7, res)
		for trial := 0; trial < 40; trial++ {
			src := topology.NodeID(rng.Intn(c.Nodes()))
			dests := randomDests(rng, 7, src, 1+rng.Intn(c.Nodes()-1))
			for _, a := range Algorithms() {
				tr := Build(c, a, src, dests)
				ref := BuildDistributed(c, a, src, dests)
				for i, v := range tr.Order {
					got, want := tr.Sends[i], ref.Sends[i]
					if len(got) != len(want) {
						t.Fatalf("%v: node %v has %d sends, distributed protocol %d", a, v, len(got), len(want))
					}
					for i, s := range got {
						if len(s.Payload) != cap(s.Payload) {
							t.Fatalf("%v: send %v->%v payload len %d cap %d", a, s.From, s.To, len(s.Payload), cap(s.Payload))
						}
						if !slices.Equal(s.Payload, want[i].Payload) {
							t.Fatalf("%v: send %v->%v payload %v, want %v", a, s.From, s.To, s.Payload, want[i].Payload)
						}
					}
				}
			}
		}
	}
}
