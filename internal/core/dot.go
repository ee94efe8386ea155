package core

import (
	"fmt"
	"strings"
)

// DOT renders the scheduled multicast as a Graphviz digraph: tree edges
// labeled with their step, nodes labeled with binary addresses, and the
// source double-circled. Paste the output into any dot renderer to obtain
// figures in the style of the paper's diagrams.
func (s *Schedule) DOT() string {
	t := s.Tree
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", fmt.Sprintf("%s_from_%s", t.Algorithm, t.Cube.Binary(t.Source)))
	fmt.Fprintf(&b, "  label=%q;\n", fmt.Sprintf("%s multicast, %s, %d steps", t.Algorithm, s.Port, s.Steps()))
	fmt.Fprintf(&b, "  node [shape=circle fontname=monospace];\n")
	fmt.Fprintf(&b, "  %q [shape=doublecircle];\n", t.Cube.Binary(t.Source))
	// Edges in the schedule's own (Step, From, To) order, which
	// NewSchedule guarantees; TestDOTEdgeOrder pins it.
	for _, u := range s.Unicasts {
		fmt.Fprintf(&b, "  %q -> %q [label=\"%d\"];\n",
			t.Cube.Binary(u.From), t.Cube.Binary(u.To), u.Step)
	}
	b.WriteString("}\n")
	return b.String()
}
