package core

import (
	"math/rand"
	"strings"
	"testing"

	"hypercube/internal/topology"
)

func TestDOTOutput(t *testing.T) {
	c := topology.New(4, topology.HighToLow)
	dests := []topology.NodeID{1, 3, 5, 7, 11, 12, 14, 15}
	s := NewSchedule(Build(c, WSort, 0, dests), AllPort)
	dot := s.DOT()
	for _, frag := range []string{
		`digraph "w-sort_from_0000"`,
		`"0000" [shape=doublecircle]`,
		`"0000" -> "1110" [label="1"]`,
		`"1110" -> "1011" [label="2"]`,
		"}",
	} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, dot)
		}
	}
	// One edge line per unicast.
	if got := strings.Count(dot, "->"); got != 8 {
		t.Errorf("edges = %d, want 8", got)
	}
}

func TestDOTDeterministic(t *testing.T) {
	c := topology.New(5, topology.HighToLow)
	dests := []topology.NodeID{3, 9, 17, 30, 22, 11}
	a := NewSchedule(Build(c, Combine, 4, dests), AllPort).DOT()
	b := NewSchedule(Build(c, Combine, 4, dests), AllPort).DOT()
	if a != b {
		t.Error("DOT output nondeterministic")
	}
}

// TestDOTEdgeOrder pins the order DOT emits edges in: NewSchedule leaves
// Unicasts strictly sorted by (Step, From, To) for every algorithm under
// both port models, so rendering them in place is the same as sorting a
// copy, and `cmd/mcast -dot` output does not depend on the construction
// order.
func TestDOTEdgeOrder(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	rng := rand.New(rand.NewSource(31))
	for _, a := range Algorithms() {
		for _, pm := range []PortModel{OnePort, AllPort} {
			for trial := 0; trial < 20; trial++ {
				src := topology.NodeID(rng.Intn(c.Nodes()))
				var dests []topology.NodeID
				for _, v := range rng.Perm(c.Nodes())[:1+rng.Intn(c.Nodes()-1)] {
					if topology.NodeID(v) != src {
						dests = append(dests, topology.NodeID(v))
					}
				}
				us := NewSchedule(Build(c, a, src, dests), pm).Unicasts
				for i := 1; i < len(us); i++ {
					p, q := us[i-1], us[i]
					if p.Step > q.Step || p.Step == q.Step && (p.From > q.From || p.From == q.From && p.To >= q.To) {
						t.Fatalf("%v/%v trial %d: unicast %d %+v not after %+v", a, pm, trial, i, q, p)
					}
				}
			}
		}
	}
}
