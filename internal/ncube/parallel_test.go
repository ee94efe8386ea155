package ncube

import (
	"math/rand"
	"reflect"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/metrics"
	"hypercube/internal/topology"
)

// batchTrees builds a deterministic batch of multicast trees across
// dimensions, algorithms, and sources.
func batchTrees(t *testing.T) []*core.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	var trees []*core.Tree
	for _, dim := range []int{4, 5, 6} {
		cube := topology.New(dim, topology.HighToLow)
		for _, alg := range []core.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort} {
			src := topology.NodeID(rng.Intn(cube.Nodes()))
			perm := rng.Perm(cube.Nodes())
			var dests []topology.NodeID
			for _, v := range perm {
				if topology.NodeID(v) != src && len(dests) < cube.Nodes()/2 {
					dests = append(dests, topology.NodeID(v))
				}
			}
			trees = append(trees, core.Build(cube, alg, src, dests))
		}
	}
	return trees
}

// TestRunParallelMatchesSequential is the core batch-equivalence check:
// RunParallelInstrumented over a mixed batch must reproduce, result for result, the
// loop of sequential Run calls — at every worker count, for both port
// models.
func TestRunParallelMatchesSequential(t *testing.T) {
	trees := batchTrees(t)
	for _, port := range []core.PortModel{core.OnePort, core.AllPort} {
		p := NCube2(port)
		want := make([]Result, len(trees))
		for i, tr := range trees {
			want[i] = Run(p, tr, 512)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			pw := p
			pw.Workers = workers
			got := RunParallelInstrumented(pw, trees, 512, Instrumentation{})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("port=%v workers=%d: RunParallelInstrumented diverges from sequential Run", port, workers)
			}
		}
	}
}

// TestRunParallelMetricsInvariant pins that a shared atomic registry
// accumulates identical totals whether the batch runs on 1 worker or 8.
func TestRunParallelMetricsInvariant(t *testing.T) {
	trees := batchTrees(t)
	p := NCube2(core.AllPort)
	totals := func(workers int) map[string]int64 {
		reg := metrics.New()
		pw := p
		pw.Workers = workers
		RunParallelInstrumented(pw, trees, 256, Instrumentation{Metrics: reg})
		out := map[string]int64{}
		for _, name := range []string{"mcast_runs", "event_steps", "net_delivered", "net_channel_acquires"} {
			out[name] = reg.Counter(name).Value()
		}
		return out
	}
	want := totals(1)
	if want["mcast_runs"] != int64(len(trees)) {
		t.Fatalf("mcast_runs = %d, want %d", want["mcast_runs"], len(trees))
	}
	for _, workers := range []int{2, 8} {
		if got := totals(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: metric totals %v diverge from sequential %v", workers, got, want)
		}
	}
}

// TestWorkersGatedSingleRun: a single run ignores Params.Workers (workers
// fan out batches only), so its result is byte-identical at any setting.
func TestWorkersGatedSingleRun(t *testing.T) {
	cube := topology.New(5, topology.HighToLow)
	tr := core.Build(cube, core.Combine, 3, []topology.NodeID{1, 7, 12, 19, 28, 30})
	p := NCube2(core.AllPort)
	want := Run(p, tr, 1024)
	for _, workers := range []int{2, 8} {
		pw := p
		pw.Workers = workers
		if got := Run(pw, tr, 1024); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: single-run result diverges from sequential", workers)
		}
	}
}

// TestRunParallelPoolReuse interleaves parallel batches with sequential
// runs to pin session hygiene: a pooled session recycled out of a parallel
// batch must behave exactly like a fresh one.
func TestRunParallelPoolReuse(t *testing.T) {
	trees := batchTrees(t)
	p := NCube2(core.OnePort)
	p.Workers = 4
	want := Run(NCube2(core.OnePort), trees[0], 512)
	for round := 0; round < 3; round++ {
		RunParallelInstrumented(p, trees, 512, Instrumentation{})
		if got := Run(NCube2(core.OnePort), trees[0], 512); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: sequential run after parallel batch diverges", round)
		}
	}
}

// TestRunParallelRejectsTracer pins the tracer rejection: tracers observe
// one interleaved stream and are unsafe across concurrent runs.
func TestRunParallelRejectsTracer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for tracer on parallel batch")
		}
	}()
	trees := batchTrees(t)[:1]
	RunParallelInstrumented(NCube2(core.AllPort), trees, 64, Instrumentation{Tracer: nopTracer{}})
}

type nopTracer struct{}

func (nopTracer) ChannelAcquired(topology.Arc, topology.NodeID, topology.NodeID, event.Time) {}
func (nopTracer) ChannelReleased(topology.Arc, event.Time)                                   {}
func (nopTracer) HeaderBlocked(topology.Arc, topology.NodeID, topology.NodeID, event.Time)   {}
