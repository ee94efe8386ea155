package ncube

import (
	"fmt"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/topology"
	"hypercube/internal/wormhole"
)

// RunMany executes several multicast trees concurrently on ONE shared
// interconnect, all initiated at time zero. The paper's contention-freedom
// theorems cover the unicasts *within* one multicast; this entry point
// measures what they deliberately do not promise — interference *between*
// simultaneous multicasts — which grows with load and affects every
// algorithm.
//
// All trees must live on the same cube. The returned slice is indexed like
// trees; TotalBlocked on each result carries the same network-wide total.
func RunMany(p Params, trees []*core.Tree, bytes int) []Result {
	return RunManyInstrumented(p, trees, bytes, Instrumentation{})
}

// RunManyInstrumented is RunMany with observability attached to the shared
// interconnect and event queue (see Instrumentation).
func RunManyInstrumented(p Params, trees []*core.Tree, bytes int, ins Instrumentation) []Result {
	p.Validate()
	if len(trees) == 0 {
		return nil
	}
	cube := trees[0].Cube
	for _, tr := range trees[1:] {
		if tr.Cube != cube {
			panic("ncube: RunMany requires a common cube")
		}
	}
	// Only the env's calendar and network are used: the trees keep their
	// own node states (launchTree).
	env := borrowEnv(p, cube)
	q, net := &env.q, env.net
	ins.instrument(q, net)
	ins.Metrics.Counter("mcast_runs").Add(int64(len(trees)))

	results := make([]Result, len(trees))
	for i, tr := range trees {
		results[i] = Result{
			Algorithm: tr.Algorithm,
			Bytes:     bytes,
			Recv:      make(map[topology.NodeID]event.Time),
		}
		launchTree(q, net, p, tr, bytes, &results[i])
	}
	q.MustRun(0, 0)
	for i := range results {
		results[i].TotalBlocked = net.TotalBlocked()
	}
	finishTracer(ins.Tracer, q.Now())
	env.release()
	return results
}

// launchTree wires one tree's distributed execution into the shared
// network, using per-tree node states so overlapping multicasts touching
// the same processors stay independent (real nodes would run one handler
// per message tag).
func launchTree(q *event.Queue, net *wormhole.Network, p Params, tr *core.Tree, bytes int, res *Result) {
	states := make(map[topology.NodeID]*nodeState, len(tr.Order))
	for i, v := range tr.Order {
		states[v] = &nodeState{sends: tr.Sends[i]}
	}
	var deliver func(d wormhole.Delivery)
	var issueNext func(v topology.NodeID)
	issueNext = func(v topology.NodeID) {
		st := states[v]
		if st == nil || st.next >= len(st.sends) {
			return
		}
		snd := st.sends[st.next]
		st.next++
		q.After(p.TStartup, func() {
			switch p.Port {
			case core.AllPort:
				net.Send(snd.From, snd.To, bytes, deliver)
				issueNext(v)
			case core.OnePort:
				net.Send(snd.From, snd.To, bytes, func(d wormhole.Delivery) {
					deliver(d)
					issueNext(v)
				})
			}
		})
	}
	deliver = func(d wormhole.Delivery) {
		if _, dup := res.Recv[d.To]; dup {
			panic(fmt.Sprintf("ncube: node %v received tree payload twice", d.To))
		}
		res.Recv[d.To] = d.Arrived
		if d.Arrived > res.Makespan {
			res.Makespan = d.Arrived
		}
		q.After(p.TRecv, func() { issueNext(d.To) })
	}
	issueNext(tr.Source)
}
