package wormhole

import (
	"math/rand"
	"testing"

	"hypercube/internal/event"
	"hypercube/internal/faults"
	"hypercube/internal/metrics"
	"hypercube/internal/topology"
	"hypercube/internal/vc"
)

// TestTalliesMatchMetrics holds the network's own tallies to the registry
// they replace on registry-free runs: HeaderBlocks, GrantedWait and
// ChannelHold must equal "net_header_blocks" and the sums of
// "net_block_time_ns" and "net_channel_hold_ns" exactly, and Delivered
// "net_delivered", on contended random unicasts at one and two lanes —
// fault-free, under drops that destroy messages after they have queued,
// and under a stall that wedges headers with others queued behind them.
// Under drops TotalBlocked, which counts delivered messages only, falls
// short of GrantedWait.
func TestTalliesMatchMetrics(t *testing.T) {
	const dim = 5
	stalled := topology.Arc{From: 3, Dim: 4}
	for _, lanes := range []int{1, 2} {
		for _, fc := range []struct {
			name string
			plan *faults.Plan
		}{
			{"fault-free", nil},
			{"drop", &faults.Plan{Seed: 7, DropRate: 0.2, Links: []faults.LinkFault{
				{Arc: topology.Arc{From: 5, Dim: 1}, From: 40 * event.Microsecond, Until: 200 * event.Microsecond},
				{Arc: topology.Arc{From: 12, Dim: 0}, From: 20 * event.Microsecond},
			}}},
			{"stall", &faults.Plan{Mode: faults.Stall, Links: []faults.LinkFault{{Arc: stalled, From: 30 * event.Microsecond}}}},
		} {
			q, net := newLaneNet(dim, lanes, vc.RoundRobin)
			reg := metrics.New()
			net.SetMetrics(reg)
			if fc.plan != nil {
				net.SetFaults(faults.New(*fc.plan))
			}
			rng := rand.New(rand.NewSource(int64(31 + lanes)))
			for i := 0; i < 400; i++ {
				from := topology.NodeID(rng.Intn(1 << dim))
				to := topology.NodeID(rng.Intn(1 << dim))
				at := event.Time(rng.Intn(300)) * event.Microsecond
				q.At(at, func() { net.Send(from, to, 64+rng.Intn(512), nil) })
			}
			q.MustRun(0, 0)
			name := fc.name
			if lanes > 1 {
				name += "/2-lane"
			}
			if got, want := int64(net.Delivered()), reg.Counter("net_delivered").Value(); got != want {
				t.Errorf("%s: Delivered %d, net_delivered %d", name, got, want)
			}
			if got, want := net.HeaderBlocks(), reg.Counter("net_header_blocks").Value(); got != want {
				t.Errorf("%s: HeaderBlocks %d, net_header_blocks %d", name, got, want)
			}
			if got, want := int64(net.GrantedWait()), reg.Histogram("net_block_time_ns").Sum(); got != want {
				t.Errorf("%s: GrantedWait %d, net_block_time_ns sum %d", name, got, want)
			}
			if got, want := int64(net.ChannelHold()), reg.Histogram("net_channel_hold_ns").Sum(); got != want {
				t.Errorf("%s: ChannelHold %d, net_channel_hold_ns sum %d", name, got, want)
			}
			if net.HeaderBlocks() == 0 || net.GrantedWait() == 0 {
				t.Errorf("%s: no contention (%d header blocks, %v granted wait)", name, net.HeaderBlocks(), net.GrantedWait())
			}
			switch fc.name {
			case "drop":
				if net.Lost() == 0 || net.TotalBlocked() >= net.GrantedWait() {
					t.Errorf("%s: %d lost, TotalBlocked %v, GrantedWait %v: want losses of messages that waited",
						name, net.Lost(), net.TotalBlocked(), net.GrantedWait())
				}
			case "stall":
				if net.InFlight() == 0 {
					t.Errorf("%s: nothing wedged on the stalled link", name)
				}
			}
		}
	}
}
