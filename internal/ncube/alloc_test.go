package ncube

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/topology"
)

// A pooled run of the 10-cube broadcast allocates its Result's Recv map,
// presized to the tree's receivers, and a few per-run objects under either
// port model; the session's calendar, network, tree execution and node
// table are reused across runs, and the one-port sender resumes from the
// op's bound delivery callback, not from a per-send closure. A per-event
// or per-send allocation creeping back into the kernel trips these exact
// ceilings.
func TestRunAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled sessions at random under -race")
	}
	// A collection empties the session pool; keep it off while counting.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := topology.New(10, topology.HighToLow)
	tr := core.Build(c, core.WSort, 0, allNodesBut(c, 0))
	for _, tc := range []struct {
		pm   core.PortModel
		want float64
	}{
		{core.AllPort, 6},
		{core.OnePort, 6},
	} {
		p := NCube2(tc.pm)
		got := testing.AllocsPerRun(20, func() { Run(p, tr, 4096) })
		if got > tc.want {
			t.Errorf("Run(%v) allocates %v objects per call, ceiling %v", tc.pm, got, tc.want)
		}
	}
}

// RunManyInstrumented on the EXT1 shape — k concurrent multicasts on one
// 6-cube network — allocates the results slice and one Recv map per tree,
// and nothing per send or per event: the trees run as the session's
// recycled tree executions, exactly like Run's.
func TestRunManyAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled sessions at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := topology.New(6, topology.HighToLow)
	rng := rand.New(rand.NewSource(1993))
	trees := make([]*core.Tree, 8)
	for j := range trees {
		src := topology.NodeID(rng.Intn(c.Nodes()))
		trees[j] = core.Build(c, core.WSort, src, randomDests(rng, 6, src, 12))
	}
	for _, tc := range []struct {
		pm   core.PortModel
		want float64
	}{
		{core.AllPort, 34},
		{core.OnePort, 33},
	} {
		p := NCube2(tc.pm)
		got := testing.AllocsPerRun(20, func() { RunManyInstrumented(p, trees, 4096, Instrumentation{}) })
		if got > tc.want {
			t.Errorf("RunManyInstrumented(%v, 8 trees) allocates %v objects per call, ceiling %v", tc.pm, got, tc.want)
		}
	}
}

func allNodesBut(c topology.Cube, src topology.NodeID) []topology.NodeID {
	out := make([]topology.NodeID, 0, c.Nodes()-1)
	for v := 0; v < c.Nodes(); v++ {
		if topology.NodeID(v) != src {
			out = append(out, topology.NodeID(v))
		}
	}
	return out
}
