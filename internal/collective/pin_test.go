package collective

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
)

// TestTimingCollectivesPinned pins every simulated number of the
// timing-only collectives: per case, one SHA-256 over the Results of dims
// 1–6 on both address resolutions, both port models and one and two
// lanes, each Result written as its Finish times in node order, Makespan,
// Messages and TotalBlocked. Roots are non-zero and tCompute is non-zero,
// so the root translation and the compute charge are both covered; the
// ReduceTree cases run over seeded member subsets with each of the four
// multicast algorithms' trees. Any change to the schedules, the executor
// or the order in which they file events moves a hash.
func TestTimingCollectivesPinned(t *testing.T) {
	const (
		block = 1000
		tc    = 7 * event.Microsecond
	)
	type pinCase struct {
		name string
		run  func(p ncube.Params, c topology.Cube, root topology.NodeID) Result
		want string
	}
	cases := []pinCase{
		{"scatter", func(p ncube.Params, c topology.Cube, root topology.NodeID) Result {
			return Scatter(p, c, root, block)
		}, "81f0ce971253d2385dfd2fe279250f6cb813bccd963a05d3424ed7e7b4c68c58"},
		{"gather", func(p ncube.Params, c topology.Cube, root topology.NodeID) Result {
			return Gather(p, c, root, block)
		}, "b05bb280add402432718b6436778495e537ce10efada41a6f79de1b95ca24ebb"},
		{"reduce", func(p ncube.Params, c topology.Cube, root topology.NodeID) Result {
			return Reduce(p, c, root, block, tc)
		}, "bdd3e7869e115d96d12d4300a02a2e66aa63166c8be5251fd94405cfa20d7f73"},
		{"barrier", func(p ncube.Params, c topology.Cube, _ topology.NodeID) Result {
			return Barrier(p, c)
		}, "f081db9575c1d09ec2bd1dc8194619b230240f2fdccdb7f5fcfe60e1c471c854"},
		{"allgather", func(p ncube.Params, c topology.Cube, _ topology.NodeID) Result {
			return AllGather(p, c, block)
		}, "de84d2e4eccd3b8f646003dee34fea9c37f801c56eb919e24ad355aa55f36391"},
		{"allreduce", func(p ncube.Params, c topology.Cube, _ topology.NodeID) Result {
			return AllReduce(p, c, block, tc)
		}, "df96339a3e6372bffc640ec5b11eaff83b4cdff6cc619ab726708d884bbaee1a"},
	}
	for _, rt := range []struct {
		alg  core.Algorithm
		want string
	}{
		{core.UCube, "6e83f73b0e4576e9d614662b004f72fe4fc64362a1b08278d80fc74fb0583de9"},
		{core.Maxport, "5634aa799b384cbf1132c716658462c334cd39054a6d9f677b3cca873697d915"},
		{core.Combine, "71e753b43cdf324be35c1aad0387915014ff2e0e265b813a2c12b13157e0f6e3"},
		{core.WSort, "322b2dd9b7a2529afd02ce66d6afc9b667eee873ac224f4f9ff92405125fab06"},
	} {
		a := rt.alg
		cases = append(cases, pinCase{"reduce-tree-" + a.String(), func(p ncube.Params, c topology.Cube, root topology.NodeID) Result {
			rng := rand.New(rand.NewSource(int64(c.Dim())))
			members := randomMembers(rng, c, root, 1+rng.Intn(c.Nodes()-1))
			return ReduceTree(p, core.Build(c, a, root, members), block, tc)
		}, rt.want})
	}
	for _, tcase := range cases {
		h := sha256.New()
		for n := 1; n <= 6; n++ {
			for _, res := range []topology.Resolution{topology.HighToLow, topology.LowToHigh} {
				c := topology.New(n, res)
				root := topology.NodeID(c.Nodes()*5/8 | 1)
				for _, pm := range []core.PortModel{core.OnePort, core.AllPort} {
					for _, lanes := range []int{1, 2} {
						p := params(pm)
						p.Lanes = lanes
						writeResult(h, c, tcase.run(p, c, root))
					}
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tcase.want {
			t.Errorf("%s: digest %s, want %s", tcase.name, got, tcase.want)
		}
	}
}

// writeResult writes r to h with its Finish times in node order.
func writeResult(h hash.Hash, c topology.Cube, r Result) {
	for v := 0; v < c.Nodes(); v++ {
		if f, ok := r.Finish[topology.NodeID(v)]; ok {
			fmt.Fprintf(h, "%d:%d ", v, f)
		}
	}
	fmt.Fprintf(h, "| %d %d %d\n", r.Makespan, r.Messages, r.TotalBlocked)
}
