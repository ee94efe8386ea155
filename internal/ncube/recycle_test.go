package ncube

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/faults"
	"hypercube/internal/topology"
)

// TestRecycledResultsStayIntact keeps the results of earlier Run,
// RunManyInstrumented and InjectTree calls while the session pool recycles
// their sessions, tree executions and node tables for other trees. Every
// kept result must still equal the deep copy taken when it was returned: a
// recycled op that shared its Recv map with an earlier result would
// rewrite that result under its caller.
func TestRecycledResultsStayIntact(t *testing.T) {
	cube := topology.New(5, topology.HighToLow)
	rng := rand.New(rand.NewSource(23))
	var kept, copies []Result
	keep := func(r Result) {
		kept = append(kept, r)
		cp := r
		cp.Recv = maps.Clone(r.Recv)
		copies = append(copies, cp)
	}
	tree := func(a core.Algorithm) *core.Tree {
		src := topology.NodeID(rng.Intn(cube.Nodes()))
		return core.Build(cube, a, src, randomDests(rng, 5, src, 1+rng.Intn(cube.Nodes()-1)))
	}
	algs := core.Algorithms()
	for round := 0; round < 12; round++ {
		p := NCube2([]core.PortModel{core.OnePort, core.AllPort}[round%2])
		a := algs[round%len(algs)]
		keep(Run(p, tree(a), 512))
		for _, r := range RunManyInstrumented(p, []*core.Tree{tree(a), tree(a), tree(a)}, 512, Instrumentation{}) {
			keep(r)
		}
		s := NewSession(p, cube, Instrumentation{})
		r1 := s.InjectTree(0, tree(a), 512, nil)
		r2 := s.InjectTree(30*event.Microsecond, tree(a), 512, nil)
		if err := s.Run(0, 0); err != nil {
			t.Fatalf("round %d: session run: %v", round, err)
		}
		keep(*r1)
		keep(*r2)
		s.Release()
	}
	for i := range kept {
		if !reflect.DeepEqual(kept[i], copies[i]) {
			t.Fatalf("result %d changed after its session was recycled:\n got %+v\nwant %+v", i, kept[i], copies[i])
		}
	}
}

// TestInjectedOpsRecycleMidRun injects a long series of trees with done
// hooks, each well after the previous one has finished, under both port
// models on a fault-free, a loss-tracked (empty fault schedule) and a lossy
// network: the session must reuse one tree execution for the whole series
// instead of keeping one per tree, and on a network that loses nothing
// every recycled execution must still reproduce Run's result for its tree.
func TestInjectedOpsRecycleMidRun(t *testing.T) {
	cube := topology.New(6, topology.HighToLow)
	rng := rand.New(rand.NewSource(41))
	const n = 40
	trees := make([]*core.Tree, n)
	algs := core.Algorithms()
	for i := range trees {
		src := topology.NodeID(rng.Intn(cube.Nodes()))
		trees[i] = core.Build(cube, algs[i%len(algs)], src, randomDests(rng, 6, src, 1+rng.Intn(cube.Nodes()-1)))
	}
	lossy := faults.NewSchedule()
	for v := topology.NodeID(0); v < 8; v++ {
		lossy.AddLink(topology.Arc{From: v, Dim: int(v) % 6}, 0, 0, false)
	}
	for _, pm := range []core.PortModel{core.OnePort, core.AllPort} {
		for _, fm := range []struct {
			name string
			f    *faults.Schedule
		}{{"fault-free", nil}, {"loss-tracked", faults.NewSchedule()}, {"lossy", lossy}} {
			p := NCube2(pm)
			s := NewSession(p, cube, Instrumentation{})
			if fm.f != nil {
				s.SetFaults(fm.f)
			}
			spare := len(s.free)
			got := make([]Result, n)
			fired := 0
			for i, tr := range trees {
				i, tr := i, tr
				// Inject at arrival, as the traffic engine does, so each
				// tree can pick up the execution its predecessor left.
				s.At(event.Time(i)*50*event.Millisecond, func() {
					s.InjectTree(s.Now(), tr, 1024, func(r *Result) {
						// The op reuses its Recv map once recycled.
						got[i] = *r
						got[i].Recv = maps.Clone(r.Recv)
						fired++
					})
				})
			}
			if err := s.Run(0, 0); err != nil {
				t.Fatalf("%v %s: session run: %v", pm, fm.name, err)
			}
			if fired != n {
				t.Fatalf("%v %s: %d of %d done hooks fired", pm, fm.name, fired, n)
			}
			// A pooled session may bring spare executions from earlier
			// scenarios; the series may add at most one.
			if want := max(spare, 1); len(s.ops) != 0 || len(s.free) != want {
				t.Errorf("%v %s: %d sequential ops left %d kept and %d free executions, want 0 and %d",
					pm, fm.name, n, len(s.ops), len(s.free), want)
			}
			s.Release()
			if fm.f == lossy {
				continue
			}
			for i, tr := range trees {
				if want := Run(p, tr, 1024); !reflect.DeepEqual(got[i], want) {
					t.Fatalf("%v %s: tree %d on a recycled execution:\n got %+v\nwant %+v", pm, fm.name, i, got[i], want)
				}
			}
		}
	}
}
