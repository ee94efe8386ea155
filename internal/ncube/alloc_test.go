package ncube

import (
	"runtime/debug"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/topology"
)

// A pooled run of the 10-cube broadcast allocates its Result's Recv map,
// presized to the tree's receivers, and a few per-run objects under either
// port model; the event calendar, the node table and the network are reused
// across runs. A per-event or per-send allocation creeping back into the
// kernel trips these ceilings.
func TestRunAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled envs at random under -race")
	}
	// A collection empties the env pool; keep it off while counting.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := topology.New(10, topology.HighToLow)
	tr := core.Build(c, core.WSort, 0, allNodesBut(c, 0))
	for _, tc := range []struct {
		pm   core.PortModel
		want float64
	}{
		{core.AllPort, 7},
		{core.OnePort, 7},
	} {
		p := NCube2(tc.pm)
		got := testing.AllocsPerRun(20, func() { Run(p, tr, 4096) })
		if got > tc.want {
			t.Errorf("Run(%v) allocates %v objects per call, ceiling %v", tc.pm, got, tc.want)
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
