package ncube

import (
	"hypercube/internal/core"
	"hypercube/internal/event"
)

// RunParallelInstrumented executes a batch of independent multicast runs —
// one conflict domain (a session: calendar + private network) per tree —
// across p.Workers worker goroutines and returns the results in tree
// order. Every run is the byte-exact sequential execution of
// Run(p, trees[i], bytes): workers only decide which OS thread drives which
// run, never the order of events inside one. With p.Workers <= 1 the batch
// still routes through the parallel executor on a single worker, so the
// batch path has one code shape at every worker count.
//
// A metrics registry is attached to every run (the registry is fully
// atomic, so concurrent runs may share it — counts are identical to the
// sequential sum at any worker count). Tracers are rejected: a tracer
// observes one interleaved channel-event stream and is not safe to share
// across concurrently executing runs; trace a single run with
// RunInstrumented instead.
func RunParallelInstrumented(p Params, trees []*core.Tree, bytes int, ins Instrumentation) []Result {
	p.Validate()
	if ins.Tracer != nil {
		panic("ncube: RunParallelInstrumented does not accept a tracer; trace single runs with RunInstrumented")
	}
	if len(trees) == 0 {
		return nil
	}

	sessions := make([]*Session, len(trees))
	pq := event.NewParallel(p.Workers)
	for i, tr := range trees {
		s := NewSession(p, tr.Cube, ins)
		s.start(tr, bytes)
		s.armDiagnoser()
		sessions[i] = s
		pq.Add(&s.q)
	}
	ins.Metrics.Counter("mcast_runs").Add(int64(len(trees)))

	if _, err := pq.Run(0, 0); err != nil {
		// Default budgets on fault-free trees: only a simulator bug can
		// trip the watchdog. Keep RunInstrumented's panicking contract.
		panic(err)
	}
	results := make([]Result, len(trees))
	for i, s := range sessions {
		results[i] = s.ops[0].res
		s.Release()
	}
	return results
}
