package ncube

import (
	"fmt"
	"math/rand"

	"hypercube/internal/chain"
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/lazyrand"
	"hypercube/internal/topology"
	"hypercube/internal/wormhole"
)

// JitterParams extends the machine model with randomized software timing,
// reflecting the paper's point that contention-freedom must hold
// "regardless of startup latency": real protocol processing times vary
// run to run, and the algorithms' guarantees cannot depend on lock-step
// steps. Each software delay is multiplied by a factor drawn uniformly
// from [1-Amount, 1+Amount].
type JitterParams struct {
	Params
	// Amount is the relative jitter, in [0, 1).
	Amount float64
	// Seed drives the jitter RNG deterministically.
	Seed int64
}

// Err extends Params.Err with the jitter range check.
func (jp JitterParams) Err() error {
	if err := jp.Params.Err(); err != nil {
		return err
	}
	if jp.Amount < 0 || jp.Amount >= 1 {
		return fmt.Errorf("ncube: jitter amount %v outside [0, 1)", jp.Amount)
	}
	return nil
}

// jitter is one run's software-delay jitter. A zero Amount builds no
// generator and draws nothing.
type jitter struct {
	amount float64
	rng    *rand.Rand
}

func (jp JitterParams) jitter() jitter {
	if jp.Amount == 0 {
		return jitter{}
	}
	return jitter{jp.Amount, lazyrand.New(jp.Seed)}
}

// of scales the software delay d by a factor drawn uniformly from
// [1-Amount, 1+Amount].
func (j jitter) of(d event.Time) event.Time {
	if j.rng == nil {
		return d
	}
	f := 1 + j.amount*(2*j.rng.Float64()-1)
	return event.Time(float64(d) * f)
}

// Validate panics on a malformed configuration (internal call sites; the
// public API boundary returns Err instead).
func (jp JitterParams) Validate() {
	if err := jp.Err(); err != nil {
		panic(err)
	}
}

// RunDistributed executes a multicast entirely through the distributed
// protocol: no global tree exists; each node, on receiving the message's
// address field, computes its forwarding unicasts locally
// (core.LocalSendsAt) and transmits them, with optionally jittered
// software overheads. This is the execution a real machine performs.
func RunDistributed(jp JitterParams, cube topology.Cube, a core.Algorithm, src topology.NodeID, dests []topology.NodeID, bytes int) Result {
	jp.Validate()
	s := NewSession(jp.Params, cube, Instrumentation{})
	q, net := &s.q, s.net
	jitter := jp.jitter()
	res := Result{
		Algorithm: a,
		Bytes:     bytes,
		Recv:      make(map[topology.NodeID]event.Time),
	}

	var deliver func(payload chain.Chain) func(wormhole.Delivery)
	launch := func(node topology.NodeID, payload chain.Chain) {
		sends := core.LocalSendsAt(cube, a, src, node, payload)
		var issue func(i int)
		issue = func(i int) {
			if i >= len(sends) {
				return
			}
			snd := sends[i]
			q.After(jitter.of(jp.TStartup), func() {
				switch jp.Port {
				case core.AllPort:
					net.Send(snd.From, snd.To, bytes, deliver(snd.Payload))
					issue(i + 1)
				case core.OnePort:
					cb := deliver(snd.Payload)
					net.Send(snd.From, snd.To, bytes, func(d wormhole.Delivery) {
						cb(d)
						issue(i + 1)
					})
				}
			})
		}
		issue(0)
	}

	deliver = func(payload chain.Chain) func(wormhole.Delivery) {
		return func(d wormhole.Delivery) {
			if _, dup := res.Recv[d.To]; dup {
				panic(fmt.Sprintf("ncube: node %v received twice", d.To))
			}
			res.Recv[d.To] = d.Arrived
			if d.Arrived > res.Makespan {
				res.Makespan = d.Arrived
			}
			q.After(jitter.of(jp.TRecv), func() { launch(d.To, payload) })
		}
	}

	launch(src, core.StartPayload(cube, a, src, dests))
	q.MustRun(0, 0)
	res.TotalBlocked = net.TotalBlocked()
	s.Release()
	return res
}
