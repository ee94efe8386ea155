package core

import (
	"math/rand"
	"testing"

	"hypercube/internal/topology"
)

// allPortTrees builds random multicast trees of every algorithm under both
// resolution orders. Deferrals on busy arcs are rare (U-cube trees on 8-
// and 9-cubes), so the set is large enough to contain several.
func allPortTrees() []*Tree {
	rng := rand.New(rand.NewSource(23))
	var trees []*Tree
	for _, res := range []topology.Resolution{topology.HighToLow, topology.LowToHigh} {
		c := topology.New(9, res)
		for trial := 0; trial < 40; trial++ {
			src := topology.NodeID(rng.Intn(c.Nodes()))
			dests := randomDests(rng, 9, src, 100+rng.Intn(c.Nodes()-100))
			for _, a := range Algorithms() {
				trees = append(trees, Build(c, a, src, dests))
			}
		}
	}
	return trees
}

// Unicasts the all-port scheduler launches in one step are pairwise
// arc-disjoint (checked here against freshly computed paths), and no node
// sends twice on one channel in a step.
func TestAllPortStepsAreArcDisjoint(t *testing.T) {
	for i, tr := range allPortTrees() {
		s := NewSchedule(tr, AllPort)
		arcs := map[topology.Arc]int{}
		channels := map[topology.Arc]int{}
		for _, u := range s.Unicasts {
			ch := topology.Arc{From: u.From, Dim: tr.Cube.FirstHop(u.From, u.To)}
			if channels[ch] == u.Step {
				t.Fatalf("%v tree %d: node %v sends twice on dim %d at step %d", tr.Algorithm, i, u.From, ch.Dim, u.Step)
			}
			channels[ch] = u.Step
			for _, a := range tr.Cube.PathArcs(u.From, u.To) {
				if arcs[a] == u.Step {
					t.Fatalf("%v tree %d: arc %v claimed twice at step %d", tr.Algorithm, i, a, u.Step)
				}
				arcs[a] = u.Step
			}
		}
	}
}

// Every node receives at most once, so no two unicasts of a schedule share
// a (Step, From, To) key: sortUnicasts may use an unstable sort and still
// produce one order. Checked for every algorithm under both port models.
func TestScheduleReceiversAreUnique(t *testing.T) {
	for i, tr := range allPortTrees() {
		for _, pm := range []PortModel{OnePort, AllPort} {
			s := NewSchedule(tr, pm)
			seen := make(map[topology.NodeID]bool, len(s.Unicasts))
			for _, u := range s.Unicasts {
				if seen[u.To] {
					t.Fatalf("%v %v tree %d: node %v receives twice", tr.Algorithm, pm, i, u.To)
				}
				seen[u.To] = true
			}
		}
	}
}
