package ncube

import (
	"math/rand"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/topology"
)

// One tree through RunManyInstrumented equals Run exactly.
func TestRunManySingleMatchesRun(t *testing.T) {
	c := topology.New(5, topology.HighToLow)
	rng := rand.New(rand.NewSource(191))
	for trial := 0; trial < 20; trial++ {
		src := topology.NodeID(rng.Intn(32))
		dests := randomDests(rng, 5, src, 1+rng.Intn(31))
		tr := core.Build(c, core.WSort, src, dests)
		want := Run(NCube2(core.AllPort), tr, 2048)
		got := RunManyInstrumented(NCube2(core.AllPort), []*core.Tree{tr}, 2048, Instrumentation{})[0]
		if want.Makespan != got.Makespan || len(want.Recv) != len(got.Recv) {
			t.Fatalf("single-tree RunManyInstrumented diverges: %v vs %v", got.Makespan, want.Makespan)
		}
	}
}

// Concurrent multicasts on disjoint subcubes do not interfere at all: each
// group's delays equal its isolated run (Theorem 2 writ large).
func TestRunManyDisjointSubcubesIndependent(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	p := NCube2(core.AllPort)
	// Tree A inside subcube 0xx..., tree B inside 1xx...
	destsA := []topology.NodeID{1, 5, 9, 17, 25, 30}
	destsB := []topology.NodeID{33, 37, 41, 49, 57, 62}
	trA := core.Build(c, core.WSort, 0, destsA)
	trB := core.Build(c, core.WSort, 32, destsB)
	soloA := Run(p, trA, 4096)
	soloB := Run(p, trB, 4096)
	both := RunManyInstrumented(p, []*core.Tree{trA, trB}, 4096, Instrumentation{})
	if both[0].Makespan != soloA.Makespan || both[1].Makespan != soloB.Makespan {
		t.Fatalf("disjoint multicasts interfered: %v/%v vs %v/%v",
			both[0].Makespan, both[1].Makespan, soloA.Makespan, soloB.Makespan)
	}
	if both[0].TotalBlocked != 0 {
		t.Errorf("blocking across disjoint subcubes: %v", both[0].TotalBlocked)
	}
}

// Interference exists between overlapping concurrent multicasts (the
// guarantee is per-multicast, not global), and the slowdown is bounded.
func TestRunManyInterference(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	p := NCube2(core.AllPort)
	rng := rand.New(rand.NewSource(193))
	sawBlocking := false
	for trial := 0; trial < 10; trial++ {
		var trees []*core.Tree
		var solos []event.Time
		for k := 0; k < 4; k++ {
			src := topology.NodeID(rng.Intn(64))
			dests := randomDests(rng, 6, src, 16)
			tr := core.Build(c, core.WSort, src, dests)
			trees = append(trees, tr)
			solos = append(solos, Run(p, tr, 4096).Makespan)
		}
		results := RunManyInstrumented(p, trees, 4096, Instrumentation{})
		for i, r := range results {
			if r.Makespan < solos[i] {
				t.Fatalf("tree %d faster under load: %v < %v", i, r.Makespan, solos[i])
			}
			if len(r.Recv) != len(trees[i].Destinations()) {
				t.Fatalf("tree %d lost receipts under load", i)
			}
		}
		if results[0].TotalBlocked > 0 {
			sawBlocking = true
		}
	}
	if !sawBlocking {
		t.Error("four overlapping multicasts never contended — implausible")
	}
}

// Under concurrent load W-sort still beats U-cube in aggregate makespan.
func TestRunManyAlgorithmOrderingUnderLoad(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	p := NCube2(core.AllPort)
	rng := rand.New(rand.NewSource(197))
	var uc, ws event.Time
	for trial := 0; trial < 8; trial++ {
		var srcs []topology.NodeID
		var dsts [][]topology.NodeID
		for k := 0; k < 4; k++ {
			src := topology.NodeID(rng.Intn(64))
			srcs = append(srcs, src)
			dsts = append(dsts, randomDests(rng, 6, src, 20))
		}
		build := func(a core.Algorithm) []*core.Tree {
			var out []*core.Tree
			for k := range srcs {
				out = append(out, core.Build(c, a, srcs[k], dsts[k]))
			}
			return out
		}
		for _, r := range RunManyInstrumented(p, build(core.UCube), 4096, Instrumentation{}) {
			if r.Makespan > uc {
				uc = r.Makespan
			}
		}
		for _, r := range RunManyInstrumented(p, build(core.WSort), 4096, Instrumentation{}) {
			if r.Makespan > ws {
				ws = r.Makespan
			}
		}
	}
	if ws >= uc {
		t.Errorf("W-sort (%v) not faster than U-cube (%v) under concurrent load", ws, uc)
	}
}

func TestRunManyValidation(t *testing.T) {
	if got := RunManyInstrumented(NCube2(core.AllPort), nil, 128, Instrumentation{}); got != nil {
		t.Error("empty RunManyInstrumented should return nil")
	}
	cA := topology.New(4, topology.HighToLow)
	cB := topology.New(5, topology.HighToLow)
	trA := core.Build(cA, core.WSort, 0, []topology.NodeID{3})
	trB := core.Build(cB, core.WSort, 0, []topology.NodeID{3})
	defer func() {
		if recover() == nil {
			t.Error("mixed cubes did not panic")
		}
	}()
	RunManyInstrumented(NCube2(core.AllPort), []*core.Tree{trA, trB}, 128, Instrumentation{})
}
