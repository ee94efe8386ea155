package core

import (
	"fmt"
	"slices"

	"hypercube/internal/chain"
	"hypercube/internal/topology"
)

// This file implements the *distributed* form of the algorithms: on the
// real machine no global tree exists — each message carries an address
// field (the recipient's responsibility chain), and every node computes its
// own forwarding unicasts locally from that field. BuildDistributed
// reconstructs a whole multicast purely through this local rule; tests
// assert it reproduces Build exactly, which validates that the payload
// protocol is self-sufficient.

// StartPayload returns the address field the multicast's initiator works
// from: for the chain algorithms, the (possibly weighted) relative chain
// with the source's own address first; for separate addressing the same
// chain; for the store-and-forward tree the bare responsibility list
// (self excluded).
func StartPayload(c topology.Cube, a Algorithm, src topology.NodeID, dests []topology.NodeID) chain.Chain {
	ch := chain.Relative(c, src, dests)
	switch a {
	case WSort:
		ch.WeightedSort(c.Dim())
		return ch
	case SFBinomial:
		return ch[1:]
	default:
		return ch
	}
}

// LocalSends computes the unicasts a node must issue after receiving the
// given address field, in issue order. src is the multicast's original
// source (needed to translate relative addresses); payload follows the
// per-algorithm convention of StartPayload and Send.Payload.
func LocalSends(c topology.Cube, a Algorithm, src topology.NodeID, payload chain.Chain) []Send {
	switch a {
	case UCube:
		return localChainSends(c, src, payload, nextCenter)
	case Maxport, WSort:
		// W-sort's weighting happened once at the source; locally it
		// behaves exactly like Maxport on the received chain.
		return localChainSends(c, src, payload, nextHighdim)
	case Combine:
		return localChainSends(c, src, payload, nextCombine)
	case SeparateAddressing:
		return localSeparateSends(c, src, payload)
	case SFBinomial:
		panic("core: SFBinomial payloads do not embed the local address; use LocalSendsAt")
	default:
		panic(fmt.Sprintf("core: unknown algorithm %v", a))
	}
}

// absOf translates a relative canonical address for the given source.
func absOf(c topology.Cube, src, rel topology.NodeID) topology.NodeID {
	return c.Canon(rel ^ c.Canon(src))
}

// relOfNode translates an absolute address into relative canonical space.
func relOfNode(c topology.Cube, src, abs topology.NodeID) topology.NodeID {
	return c.Canon(abs) ^ c.Canon(src)
}

func localChainSends(c topology.Cube, src topology.NodeID, ch chain.Chain, policy func(chain.Chain, int, int) int) []Send {
	if len(ch) == 0 {
		return nil
	}
	from := absOf(c, src, ch[0])
	var out []Send
	left, right := 0, len(ch)-1
	for right > left {
		next := policy(ch, left, right)
		payload := make(chain.Chain, right-next+1)
		copy(payload, ch[next:right+1])
		out = append(out, Send{From: from, To: absOf(c, src, ch[next]), Payload: payload})
		right = next - 1
	}
	return out
}

// localSeparateSends: only the initiator sends; a recipient's payload is
// its own singleton chain and produces nothing.
func localSeparateSends(c topology.Cube, src topology.NodeID, ch chain.Chain) []Send {
	if len(ch) < 2 || ch[0] != 0 {
		return nil
	}
	from := absOf(c, src, ch[0])
	out := make([]Send, 0, len(ch)-1)
	for _, rel := range ch[1:] {
		out = append(out, Send{From: from, To: absOf(c, src, rel), Payload: chain.Chain{rel}})
	}
	return out
}

// LocalSendsAt is LocalSends for algorithms whose payload does not embed
// the local address (SFBinomial). node is the local absolute address.
func LocalSendsAt(c topology.Cube, a Algorithm, src, node topology.NodeID, payload chain.Chain) []Send {
	if a != SFBinomial {
		return LocalSends(c, a, src, payload)
	}
	self := relOfNode(c, src, node)
	if len(payload) == 0 {
		return nil
	}
	// Highest dimension in which any responsibility differs from self.
	top := -1
	for _, r := range payload {
		if r != self {
			if d := topology.Delta(self, r); d > top {
				top = d
			}
		}
	}
	var out []Send
	resp := append(chain.Chain(nil), payload...)
	for d := top; d >= 0; d-- {
		bit := topology.NodeID(1) << uint(d)
		var keep, give chain.Chain
		for _, r := range resp {
			if r&bit == self&bit {
				keep = append(keep, r)
			} else {
				give = append(give, r)
			}
		}
		if len(give) == 0 {
			continue
		}
		partner := self ^ bit
		rest := make(chain.Chain, 0, len(give))
		for _, r := range give {
			if r != partner {
				rest = append(rest, r)
			}
		}
		out = append(out, Send{From: node, To: absOf(c, src, partner), Payload: rest})
		resp = keep
	}
	return out
}

// BuildDistributed constructs the multicast tree by repeatedly applying the
// local forwarding rule, starting from the initiator's address field — the
// execution a real machine performs. Deliveries are handled in queue order,
// so the result is slot for slot the tree of Build (asserted by SameTree).
func BuildDistributed(c topology.Cube, a Algorithm, src topology.NodeID, dests []topology.NodeID) *Tree {
	t := &Tree{Cube: c, Source: src, Algorithm: a}
	type delivery struct {
		node    topology.NodeID
		payload chain.Chain
	}
	queue := []delivery{{src, StartPayload(c, a, src, dests)}}
	for head := 0; head < len(queue); head++ {
		d := queue[head]
		sends := LocalSendsAt(c, a, src, d.node, d.payload)
		for _, snd := range sends {
			queue = append(queue, delivery{snd.To, snd.Payload})
		}
		t.add(d.node, sends)
	}
	return t
}

// SameTree reports how got differs from want, or nil when the two trees
// are identical slot for slot: the same Order and, for every slot, the same
// sends with equal From, To and Payload. It is the exact equivalence check
// between the central and the distributed construction.
func SameTree(want, got *Tree) error {
	if !slices.Equal(want.Order, got.Order) {
		return fmt.Errorf("core: Order %v, want %v", got.Order, want.Order)
	}
	if len(want.Sends) != len(got.Sends) {
		return fmt.Errorf("core: %d send lists, want %d", len(got.Sends), len(want.Sends))
	}
	for i, ws := range want.Sends {
		gs := got.Sends[i]
		if len(gs) != len(ws) {
			return fmt.Errorf("core: node %v has %d sends, want %d", want.Order[i], len(gs), len(ws))
		}
		for j, w := range ws {
			if g := gs[j]; g.From != w.From || g.To != w.To || !slices.Equal(g.Payload, w.Payload) {
				return fmt.Errorf("core: node %v send %d is %v, want %v", want.Order[i], j, g, w)
			}
		}
	}
	return nil
}
