package ncube

import (
	"hypercube/internal/core"
)

// RunManyInstrumented executes several multicast trees concurrently on ONE
// shared interconnect, all initiated at time zero, with observability
// attached to the shared interconnect and event queue (see
// Instrumentation). The paper's contention-freedom theorems cover the
// unicasts *within* one multicast; this entry point measures what they
// deliberately do not promise — interference *between* simultaneous
// multicasts — which grows with load and affects every algorithm.
//
// All trees must live on the same cube. The returned slice is indexed like
// trees; TotalBlocked on each result carries the same network-wide total.
func RunManyInstrumented(p Params, trees []*core.Tree, bytes int, ins Instrumentation) []Result {
	p.Validate()
	if len(trees) == 0 {
		return nil
	}
	cube := trees[0].Cube
	for _, tr := range trees[1:] {
		if tr.Cube != cube {
			panic("ncube: RunManyInstrumented requires a common cube")
		}
	}
	s := NewSession(p, cube, ins)
	ins.Metrics.Counter("mcast_runs").Add(int64(len(trees)))
	for _, tr := range trees {
		s.start(tr, bytes)
	}
	if err := s.Run(0, 0); err != nil {
		// Default budgets on fault-free trees: only a simulator bug can
		// trip the watchdog.
		panic(err)
	}
	results := make([]Result, len(trees))
	for i, op := range s.ops {
		results[i] = op.res
		results[i].TotalBlocked = s.net.TotalBlocked()
	}
	s.Release()
	return results
}
