// Native fuzz target for the library's correctness claims — the go-test
// form of cmd/verify's randomized checker, so `go test -fuzz` can drive the
// same invariants with coverage-guided inputs and CI replays the committed
// seed corpus on every run:
//
//   - every algorithm's tree covers the destination set and validates;
//   - schedules are nonempty and satisfy Theorem 3 (step count bounds);
//   - the contention-freedom theorems hold on the Definition 4 checker
//     (U-cube one-port; Maxport, Combine, W-sort all-port);
//   - Maxport and W-sort never block a header on the physical simulator;
//   - the distributed build reconstructs the central tree exactly.
//
// Fuzzed inputs stay at dim <= 6 (64 nodes): large enough for every
// structural edge case the paper discusses, small enough that one case
// runs every algorithm and two simulations in well under a millisecond.
package hypercube_test

import (
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
)

// fuzzInstance decodes the raw fuzz input into a multicast instance: the
// dimension folds into [1,6], the destination set is the bitmask's set bits
// among the cube's nodes (the source is ignored by Build, matching its
// dedup contract).
func fuzzInstance(dimRaw uint8, lowToHigh bool, srcRaw uint32, destMask uint64) (topology.Cube, topology.NodeID, []topology.NodeID) {
	res := topology.HighToLow
	if lowToHigh {
		res = topology.LowToHigh
	}
	cube := topology.New(1+int(dimRaw%6), res)
	src := topology.NodeID(srcRaw % uint32(cube.Nodes()))
	var dests []topology.NodeID
	for v := 0; v < cube.Nodes(); v++ {
		if destMask&(1<<uint(v)) != 0 {
			dests = append(dests, topology.NodeID(v))
		}
	}
	return cube, src, dests
}

func FuzzMulticastInvariants(f *testing.F) {
	// Seeds: singleton, broadcast, dense and sparse sets, source inside
	// the destination set, both resolutions, degenerate 1-cube.
	f.Add(uint8(5), false, uint32(0), uint64(1)<<63)
	f.Add(uint8(5), true, uint32(17), uint64(0xFFFFFFFFFFFFFFFF))
	f.Add(uint8(4), false, uint32(5), uint64(0x8421))
	f.Add(uint8(3), true, uint32(2), uint64(0b10110101))
	f.Add(uint8(2), false, uint32(1), uint64(0b0110))
	f.Add(uint8(0), false, uint32(0), uint64(0b11))
	f.Add(uint8(5), false, uint32(33), uint64(0xF0F0F0F0F0F0F0F))

	f.Fuzz(func(t *testing.T, dimRaw uint8, lowToHigh bool, srcRaw uint32, destMask uint64) {
		cube, src, dests := fuzzInstance(dimRaw, lowToHigh, srcRaw, destMask)
		for _, a := range core.Algorithms() {
			tree := core.Build(cube, a, src, dests)
			tree.Validate()
			covered := map[topology.NodeID]bool{}
			for _, v := range tree.Destinations() {
				covered[v] = true
			}
			for _, d := range dests {
				if d != src && !covered[d] {
					t.Fatalf("%v: destination %d not covered (src=%d dests=%v)", a, d, src, dests)
				}
			}
			effective := 0
			for _, d := range dests {
				if d != src {
					effective++
				}
			}
			for _, pm := range []core.PortModel{core.OnePort, core.AllPort} {
				s := core.NewSchedule(tree, pm)
				if s.Steps() <= 0 && effective > 0 {
					t.Fatalf("%v/%v: empty schedule (src=%d dests=%v)", a, pm, src, dests)
				}
				if !core.Theorem3Holds(s) {
					t.Fatalf("%v/%v: Theorem 3 violated (src=%d dests=%v)", a, pm, src, dests)
				}
			}
		}
		// Contention-freedom guarantees (Theorems 5-7).
		guaranteed := []struct {
			a  core.Algorithm
			pm core.PortModel
		}{
			{core.UCube, core.OnePort},
			{core.Maxport, core.AllPort},
			{core.Combine, core.AllPort},
			{core.WSort, core.AllPort},
		}
		for _, g := range guaranteed {
			s := core.NewSchedule(core.Build(cube, g.a, src, dests), g.pm)
			if cs := core.CheckContention(s); len(cs) != 0 {
				t.Fatalf("%v/%v: Definition 4 violated: %v (src=%d dests=%v)", g.a, g.pm, cs[0], src, dests)
			}
		}
		// The same guarantees on the physical simulator: zero header
		// blocking. This also soaks the pooled run environment — every
		// fuzz case borrows and releases queues, networks, and messages.
		for _, a := range []core.Algorithm{core.Maxport, core.WSort} {
			r := ncube.Run(ncube.NCube2(core.AllPort), core.Build(cube, a, src, dests), 1024)
			if r.TotalBlocked != 0 {
				t.Fatalf("%v: physical blocking %v on the simulator (src=%d dests=%v)", a, r.TotalBlocked, src, dests)
			}
		}
		// Distributed-protocol equivalence: the tree a real machine
		// reconstructs from address fields matches the central build.
		for _, a := range core.Algorithms() {
			want := core.Build(cube, a, src, dests)
			got := core.BuildDistributed(cube, a, src, dests)
			if err := core.SameTree(want, got); err != nil {
				t.Fatalf("%v: distributed build diverges (src=%d dests=%v): %v", a, src, dests, err)
			}
		}
	})
}
