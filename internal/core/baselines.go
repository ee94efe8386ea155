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
func buildSeparate(c topology.Cube, src topology.NodeID, ch chain.Chain) *Tree {
	t := newTree(c, SeparateAddressing, src, 1)
	t.touch(src)
	for i := 1; i < len(ch); i++ {
		t.addSend(Send{From: src, To: t.abs(ch[i]), Payload: ch[i : i+1 : i+1]})
	}
	return t
}

// buildSFBinomial reproduces the store-and-forward-era multicast of Figure
// 3(a): recursive doubling over the cube's dimensions from high to low (in
// canonical space), pruned to branches that lead to at least one
// destination. Non-destination relay processors receive and forward the
// message in software, which is exactly the inefficiency the paper's
// wormhole algorithms remove.
func buildSFBinomial(c topology.Cube, src topology.NodeID, ch chain.Chain) *Tree {
	t := newTree(c, SFBinomial, src, 0)
	t.touch(src)
	if len(ch) < 2 {
		return t
	}
	dests := make(map[topology.NodeID]bool, len(ch)-1)
	for _, rel := range ch[1:] {
		dests[rel] = true
	}
	// holders maps relative addresses that currently have the message to
	// the set of destinations they are responsible for.
	responsibility := map[topology.NodeID][]topology.NodeID{0: ch[1:]}
	top := ch.MaxDelta()
	for d := top; d >= 0; d-- {
		for _, holder := range holdersInOrder(responsibility) {
			resp := responsibility[holder]
			var keep, give []topology.NodeID
			partner := holder ^ topology.NodeID(1<<uint(d))
			for _, dst := range resp {
				if dst&topology.NodeID(1<<uint(d)) == holder&topology.NodeID(1<<uint(d)) {
					keep = append(keep, dst)
				} else {
					give = append(give, dst)
				}
			}
			if len(give) == 0 {
				continue
			}
			responsibility[holder] = keep
			// The address field carried to the partner is the set of
			// destinations it must still cover — itself excluded.
			rest := make(chain.Chain, 0, len(give))
			for _, dst := range give {
				if dst != partner {
					rest = append(rest, dst)
				}
			}
			t.addSend(Send{From: t.abs(holder), To: t.abs(partner), Payload: slices.Clip(rest)})
			responsibility[partner] = rest
		}
	}
	return t
}

// holdersInOrder returns the current holders sorted ascending so the
// doubling proceeds deterministically.
func holdersInOrder(resp map[topology.NodeID][]topology.NodeID) []topology.NodeID {
	out := make([]topology.NodeID, 0, len(resp))
	for v := range resp {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
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
