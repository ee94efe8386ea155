package ncube

import (
	"reflect"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/topology"
)

// forceSparse lowers denseNodeLimit so every cube in the test uses the
// sparse node-state backend, restoring the limit (and draining the env
// pool of sparse-shaped envs) afterwards.
func forceSparse(t *testing.T) {
	t.Helper()
	old := denseNodeLimit
	denseNodeLimit = 0
	t.Cleanup(func() { denseNodeLimit = old })
}

// TestSparseMatchesDense forces the sparse backend onto the dense regime's
// cubes and requires reflect.DeepEqual-identical results for every
// algorithm and both port models — the deterministic-seed regression that
// lets giant-cube runs trust the map-backed store.
func TestSparseMatchesDense(t *testing.T) {
	type key struct {
		dim   int
		alg   core.Algorithm
		port  core.PortModel
		bytes int
	}
	cases := []key{}
	for _, dim := range []int{3, 5, 7} {
		for _, alg := range core.Algorithms() {
			for _, port := range []core.PortModel{core.OnePort, core.AllPort} {
				cases = append(cases, key{dim, alg, port, 700})
			}
		}
	}
	dense := map[key]Result{}
	for _, c := range cases {
		cube := topology.New(c.dim, topology.HighToLow)
		dests := []topology.NodeID{1, 2, topology.NodeID(cube.Nodes() - 1)}
		tr := core.Build(cube, c.alg, 0, dests)
		dense[c] = Run(NCube2(c.port), tr, c.bytes)
	}

	forceSparse(t)
	for _, c := range cases {
		cube := topology.New(c.dim, topology.HighToLow)
		dests := []topology.NodeID{1, 2, topology.NodeID(cube.Nodes() - 1)}
		tr := core.Build(cube, c.alg, 0, dests)
		if got := Run(NCube2(c.port), tr, c.bytes); !reflect.DeepEqual(got, dense[c]) {
			t.Fatalf("dim=%d alg=%v port=%v: sparse backend diverges from dense", c.dim, c.alg, c.port)
		}
	}
}

// TestSparseSessionMatchesDense repeats the diff for the Session path
// (treeOp's opTable) with two overlapping injected trees.
func TestSparseSessionMatchesDense(t *testing.T) {
	run := func() (Result, Result) {
		cube := topology.New(5, topology.HighToLow)
		s := NewSession(NCube2(core.AllPort), cube, Instrumentation{})
		t1 := core.Build(cube, core.Maxport, 0, []topology.NodeID{3, 9, 17, 30})
		t2 := core.Build(cube, core.UCube, 31, []topology.NodeID{2, 9, 14, 21})
		r1 := s.InjectTree(0, t1, 900, nil)
		r2 := s.InjectTree(40*event.Microsecond, t2, 900, nil)
		if err := s.Run(0, 0); err != nil {
			t.Fatal(err)
		}
		a, b := *r1, *r2
		s.Release()
		return a, b
	}
	d1, d2 := run()
	forceSparse(t)
	s1, s2 := run()
	if !reflect.DeepEqual(s1, d1) || !reflect.DeepEqual(s2, d2) {
		t.Fatal("sparse session results diverge from dense")
	}
}

// TestGiantCubeSmoke is the run only the sparse backend makes feasible: a
// 17-cube (131072 nodes) multicast to a small destination set. The dense
// backend would allocate 131072 node states (and wormhole a multi-million
// entry channel table); sparse allocates in proportion to the ~couple
// hundred nodes the tree touches.
func TestGiantCubeSmoke(t *testing.T) {
	cube := topology.New(17, topology.HighToLow)
	dests := []topology.NodeID{1, 4097, 70000, 131071}
	tr := core.Build(cube, core.Combine, 0, dests)
	res := Run(NCube2(core.AllPort), tr, 256)
	for _, d := range dests {
		if _, ok := res.Recv[d]; !ok {
			t.Fatalf("destination %d never received", d)
		}
	}
	if res.Makespan <= 0 {
		t.Fatal("non-positive makespan")
	}

	// Same tree, parallel batch path.
	p := NCube2(core.AllPort)
	p.Workers = 4
	batch := RunParallelInstrumented(p, []*core.Tree{tr, tr}, 256, Instrumentation{})
	for i, r := range batch {
		if !reflect.DeepEqual(r, res) {
			t.Fatalf("batch run %d diverges from single run on 17-cube", i)
		}
	}
}
