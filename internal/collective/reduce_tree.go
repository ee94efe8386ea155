package collective

import (
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/wormhole"
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
func ReduceTree(p ncube.Params, tr *core.Tree, bytes int, tCompute event.Time) Result {
	if bytes < 0 || tCompute < 0 {
		panic("collective: negative reduce parameter")
	}
	e := newEngine(p, tr.Cube, len(tr.Order))

	// children[v] counts v's direct children; parents derived from sends.
	children := map[topology.NodeID]int{}
	parent := map[topology.NodeID]topology.NodeID{}
	for _, s := range tr.Unicasts() {
		children[s.From]++
		parent[s.To] = s.From
	}

	pending := map[topology.NodeID]int{}
	var ready func(v topology.NodeID)
	ready = func(v topology.NodeID) {
		if v == tr.Source {
			e.res.Finish[v] = e.q.Now()
			return
		}
		up, ok := parent[v]
		if !ok {
			panic("collective: tree member without a parent")
		}
		e.sendSeq(v, []sendSpec{{to: up, bytes: bytes}}, func(s sendSpec, d wormhole.Delivery) {
			e.res.Finish[v] = d.Arrived
			e.q.After(e.p.TRecv+tCompute, func() {
				pending[d.To]--
				if pending[d.To] == 0 {
					ready(d.To)
				}
			})
		})
	}

	// Every node that appears in the tree participates; leaves start at
	// once.
	seen := map[topology.NodeID]bool{tr.Source: true}
	for _, s := range tr.Unicasts() {
		seen[s.To] = true
	}
	for v := range seen {
		pending[v] = children[v]
	}
	// Deterministic launch order: ascending addresses.
	for n := 0; n < tr.Cube.Nodes(); n++ {
		v := topology.NodeID(n)
		if seen[v] && pending[v] == 0 {
			ready(v)
		}
	}
	return e.finish()
}
