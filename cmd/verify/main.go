// Command verify is a randomized checker for the library's correctness
// claims: it fuzzes multicast instances and asserts, for every algorithm,
// that the tree covers exactly the destination set, that the schedules are
// well-formed, and that the algorithms the paper proves contention-free
// (U-cube on one-port; Maxport and W-sort on all-port) pass the Definition
// 4 checker and never block a header on the physical simulator.
//
// It exits nonzero on the first violation, printing a reproducer.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hypercube/internal/cliutil"
	"hypercube/internal/core"
	"hypercube/internal/lazyrand"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("verify: ")
	var (
		dim    = flag.Int("n", 6, "hypercube dimensionality")
		trials = flag.Int("trials", 500, "random multicast instances")
		seed   = flag.Int64("seed", 1, "RNG seed")
		sim    = flag.Bool("sim", true, "also run the physical simulator checks")
	)
	obs := cliutil.ObservabilityFlags()
	flag.Parse()

	if err := obs.Start("verify"); err != nil {
		log.Fatal(err)
	}
	ins := ncube.Instrumentation{Metrics: obs.Registry}
	rng := lazyrand.New(*seed)
	failures := 0
	for _, res := range []topology.Resolution{topology.HighToLow, topology.LowToHigh} {
		cube := topology.New(*dim, res)
		gen := workload.NewGenerator(cube, rng.Int63())
		for trial := 0; trial < *trials; trial++ {
			src := gen.Source()
			m := 1 + rng.Intn(cube.Nodes()-1)
			dests := gen.Dests(src, m)
			failures += checkInstance(cube, src, dests, *sim, ins)
			if failures > 0 {
				os.Exit(1)
			}
		}
	}
	fmt.Printf("ok: %d instances per resolution on the %d-cube, all checks passed\n", *trials, *dim)
	if err := obs.Finish(map[string]any{"dim": *dim, "trials": *trials, "seed": *seed}); err != nil {
		log.Fatal(err)
	}
}

func checkInstance(cube topology.Cube, src topology.NodeID, dests []topology.NodeID, sim bool, ins ncube.Instrumentation) int {
	fail := func(format string, args ...interface{}) int {
		log.Printf(format, args...)
		log.Printf("reproducer: -n %d src=%d dests=%v", cube.Dim(), src, dests)
		return 1
	}
	for _, a := range core.Algorithms() {
		tree := core.Build(cube, a, src, dests)
		tree.Validate()
		covered := map[topology.NodeID]bool{}
		for _, v := range tree.Destinations() {
			covered[v] = true
		}
		for _, d := range dests {
			if !covered[d] {
				return fail("%v: destination %d not covered", a, d)
			}
		}
		for _, pm := range []core.PortModel{core.OnePort, core.AllPort} {
			s := core.NewSchedule(tree, pm)
			if s.Steps() <= 0 && len(dests) > 0 {
				return fail("%v/%v: empty schedule", a, pm)
			}
			if !core.Theorem3Holds(s) {
				return fail("%v/%v: Theorem 3 violated", a, pm)
			}
		}
	}
	// Contention-freedom guarantees.
	guaranteed := []struct {
		a  core.Algorithm
		pm core.PortModel
	}{
		{core.UCube, core.OnePort},
		{core.Maxport, core.AllPort},
		{core.Combine, core.AllPort},
		{core.WSort, core.AllPort},
	}
	for _, g := range guaranteed {
		s := core.NewSchedule(core.Build(cube, g.a, src, dests), g.pm)
		if cs := core.CheckContention(s); len(cs) != 0 {
			return fail("%v/%v: Definition 4 violated: %v", g.a, g.pm, cs[0])
		}
	}
	if sim {
		for _, a := range []core.Algorithm{core.Maxport, core.WSort} {
			r := ncube.RunInstrumented(ncube.NCube2(core.AllPort), core.Build(cube, a, src, dests), 1024, ins)
			if r.TotalBlocked != 0 {
				return fail("%v: physical blocking %v on the simulator", a, r.TotalBlocked)
			}
		}
		// Distributed-protocol equivalence: the tree a real machine
		// reconstructs from address fields matches the central build.
		for _, a := range core.Algorithms() {
			want := core.Build(cube, a, src, dests)
			got := core.BuildDistributed(cube, a, src, dests)
			if err := core.SameTree(want, got); err != nil {
				return fail("%v: distributed build diverges: %v", a, err)
			}
		}
	}
	return 0
}
