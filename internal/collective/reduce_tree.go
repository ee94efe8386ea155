package collective

import (
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
)

// ReduceTree executes the *reverse* of a multicast tree: a convergecast in
// which every member's contribution flows up the tree's edges to the
// source, combined at each interior node. This extends reduction from the
// whole cube (Reduce) to arbitrary subsets: build a multicast tree over
// the member set with any algorithm, then run it backwards.
//
// A subtlety the tests explore: the upward unicast from child to parent
// takes the E-cube path P(child, parent), which generally differs from the
// reverse of P(parent, child), so the paper's downward contention-freedom
// does not automatically dualize. The operation is always correct; its
// blocking time is reported for measurement.
//
// ReduceTree leaves the Result's Makespan zero; the source's Finish time
// is when the reduction completes.
func ReduceTree(p ncube.Params, tr *core.Tree, bytes int, tCompute event.Time) Result {
	if bytes < 0 || tCompute < 0 {
		panic("collective: negative reduce parameter")
	}
	r := *standalone(p, tr.Cube, func(sub Substrate) *Result {
		e := newEngine(sub)
		c := newConvergecast(e, tr.Source, tCompute)
		// The parent rule is the tree's unicasts reversed. A node that
		// is its own parent is not a member, unless it is the source.
		for v := range c.node {
			c.node[v].parent = topology.NodeID(v)
		}
		for _, sends := range tr.Sends {
			for _, s := range sends {
				c.node[s.To].parent = s.From
				c.node[s.To].size = bytes
				c.node[s.From].pending++
			}
		}
		// Leaves start in ascending address order.
		for v, n := range c.node {
			id := topology.NodeID(v)
			if (id == tr.Source || n.parent != id) && n.pending == 0 {
				c.ready(id)
			}
		}
		return e.res
	})
	r.Makespan = 0
	return r
}
