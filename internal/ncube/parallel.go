package ncube

import (
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/topology"
)

// runQueue drives one run's calendar under the configured execution mode:
// Workers <= 1 is the classic single-threaded RunBudget loop; Workers > 1
// routes the same calendar through the conservative parallel executor as a
// single logical process. One shared network is one conflict domain, so a
// lone run gains no concurrency from extra workers — the parallel path
// exists so that EVERY entry point exercises the same kernel the batch
// runners use, which is what lets the differential test wall assert
// byte-identity between the two executors on real machine workloads.
func runQueue(q *event.Queue, workers, maxSteps int, maxTime event.Time) (event.Time, error) {
	if workers <= 1 {
		return q.RunBudget(maxSteps, maxTime)
	}
	pq := event.NewParallel(workers, 0)
	pq.Add(q)
	return pq.Run(maxSteps, maxTime)
}

// RunParallel executes a batch of independent multicast runs — one conflict
// domain (calendar + private network) per tree — across p.Workers worker
// goroutines and returns the results in tree order. Every run is the
// byte-exact sequential execution of Run(p, trees[i], bytes): workers only
// decide which OS thread drives which run, never the order of events inside
// one. With p.Workers <= 1 the batch still routes through the parallel
// executor on a single worker, so the batch path has one code shape at
// every worker count.
func RunParallel(p Params, trees []*core.Tree, bytes int) []Result {
	return RunParallelInstrumented(p, trees, bytes, Instrumentation{})
}

// RunParallelInstrumented is RunParallel with a metrics registry attached
// to every run (the registry is fully atomic, so concurrent runs may share
// it — counts are identical to the sequential sum at any worker count).
// Tracers are rejected: a tracer observes one interleaved channel-event
// stream and is not safe to share across concurrently executing runs; trace
// a single run with RunWithTracer instead.
func RunParallelInstrumented(p Params, trees []*core.Tree, bytes int, ins Instrumentation) []Result {
	p.Validate()
	if ins.Tracer != nil {
		panic("ncube: RunParallelInstrumented does not accept a tracer; trace single runs with RunWithTracer")
	}
	if len(trees) == 0 {
		return nil
	}

	results := make([]Result, len(trees))
	envs := make([]*runEnv, len(trees))
	pq := event.NewParallel(p.Workers, 0)
	for i, tr := range trees {
		results[i] = Result{
			Algorithm: tr.Algorithm,
			Bytes:     bytes,
			Recv:      make(map[topology.NodeID]event.Time, tr.NumUnicasts()),
		}
		env := getEnv(p, tr, &results[i], bytes)
		ins.instrument(&env.q, env.net)
		env.issueNext(env.nodes.state(env, tr.Source))
		env.q.SetDiagnoser(env.diagFn)
		envs[i] = env
		pq.Add(&env.q)
	}
	ins.Metrics.Counter("mcast_runs").Add(int64(len(trees)))

	if _, err := pq.Run(0, 0); err != nil {
		// Default budgets on fault-free trees: only a simulator bug can
		// trip the watchdog. Keep RunInstrumented's panicking contract.
		panic(err)
	}
	for i, env := range envs {
		results[i].TotalBlocked = env.net.TotalBlocked()
		env.release()
	}
	return results
}
