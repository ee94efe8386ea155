package core

import (
	"slices"

	"hypercube/internal/chain"
	"hypercube/internal/topology"
)

// buildSeparate sends one unicast per destination, all from the source, in
// chain (ascending relative) order. On a one-port architecture this costs m
// steps; on an all-port architecture the scheduler overlaps sends on
// different channels but serializes sends sharing the first hop.
func (w *Workspace) buildSeparate(c topology.Cube, src topology.NodeID, ch chain.Chain) *Tree {
	t := w.newTree(c, SeparateAddressing, src, len(ch))
	sends := reuse(w.sends, len(ch)-1)
	for i := 1; i < len(ch); i++ {
		sends = append(sends, Send{From: src, To: t.abs(ch[i]), Payload: ch[i : i+1 : i+1]})
	}
	t.add(src, window(sends, 0))
	for _, s := range sends {
		t.add(s.To, nil)
	}
	w.sends = sends
	return t
}

// buildSFBinomial reproduces the store-and-forward-era multicast of Figure
// 3(a): recursive doubling over the cube's dimensions from high to low (in
// canonical space), pruned to branches that lead to at least one
// destination. Non-destination relay processors receive and forward the
// message in software, which is exactly the inefficiency the paper's
// wormhole algorithms remove.
//
// Holders are processed in queue order: a node that receives across
// dimension d splits its responsibility over dimensions d-1 down to 0,
// exactly as in a level-by-level doubling, so the tree is the same and its
// Order is breadth first. Only the tree's Order and Sends come from the
// workspace: each holder's sends and payloads are fresh, because no paper
// figure sweeps this baseline.
func (w *Workspace) buildSFBinomial(c topology.Cube, src topology.NodeID, ch chain.Chain) *Tree {
	t := w.newTree(c, SFBinomial, src, len(ch))
	type job struct {
		rel  topology.NodeID
		resp chain.Chain // destinations this holder must still cover
		top  int         // highest dimension left to split on
	}
	queue := []job{{0, ch[1:], -1}}
	if len(ch) > 1 {
		queue[0].top = ch.MaxDelta()
	}
	for head := 0; head < len(queue); head++ {
		j := queue[head]
		from := t.abs(j.rel)
		var sends []Send
		resp := j.resp
		for d := j.top; d >= 0; d-- {
			bit := topology.NodeID(1) << uint(d)
			var keep, give chain.Chain
			for _, dst := range resp {
				if dst&bit == j.rel&bit {
					keep = append(keep, dst)
				} else {
					give = append(give, dst)
				}
			}
			if len(give) == 0 {
				continue
			}
			resp = keep
			// The address field carried to the partner is the set of
			// destinations it must still cover — itself excluded.
			partner := j.rel ^ bit
			rest := make(chain.Chain, 0, len(give))
			for _, dst := range give {
				if dst != partner {
					rest = append(rest, dst)
				}
			}
			sends = append(sends, Send{From: from, To: t.abs(partner), Payload: slices.Clip(rest)})
			queue = append(queue, job{partner, rest, d - 1})
		}
		t.add(from, slices.Clip(sends))
	}
	return t
}

// Relays returns the non-destination, non-source processors that must
// handle the message in software — nonempty only for SFBinomial trees.
func (t *Tree) Relays(dests []topology.NodeID) []topology.NodeID {
	isDest := map[topology.NodeID]bool{}
	for _, d := range dests {
		isDest[d] = true
	}
	var out []topology.NodeID
	for _, v := range t.Destinations() {
		if !isDest[v] && v != t.Source {
			out = append(out, v)
		}
	}
	return out
}
