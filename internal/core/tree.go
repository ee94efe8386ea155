// Package core implements the paper's multicast algorithms and execution
// models: the U-cube baseline (Figure 4), the new all-port algorithms
// Maxport, Combine, and W-sort (Sections 4.1–4.2), plus the unicast-per-
// destination and store-and-forward baselines of Section 2. It also provides
// the stepwise schedulers for one-port and all-port architectures and the
// contention-freedom checker of Definition 4.
package core

import (
	"fmt"
	"slices"

	"hypercube/internal/chain"
	"hypercube/internal/topology"
)

// Algorithm identifies a multicast tree construction algorithm.
type Algorithm int

const (
	// SeparateAddressing sends one unicast from the source to every
	// destination (Section 2's naive baseline).
	SeparateAddressing Algorithm = iota
	// SFBinomial is the store-and-forward-era recursive-doubling tree of
	// Figure 3(a); intermediate non-destination processors relay the
	// message in software.
	SFBinomial
	// UCube is the one-port-optimal algorithm of Figure 4 (McKinley et
	// al. 1992): next = center.
	UCube
	// Maxport exploits all ports maximally: next = highdim.
	Maxport
	// Combine balances port usage against subtree weight:
	// next = max(highdim, center).
	Combine
	// WSort applies weighted_sort to the chain and then runs Maxport
	// (Section 4.2).
	WSort
)

var algorithmNames = map[Algorithm]string{
	SeparateAddressing: "separate",
	SFBinomial:         "sf-binomial",
	UCube:              "u-cube",
	Maxport:            "maxport",
	Combine:            "combine",
	WSort:              "w-sort",
}

func (a Algorithm) String() string {
	if s, ok := algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms lists every implemented algorithm in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{SeparateAddressing, SFBinomial, UCube, Maxport, Combine, WSort}
}

// ParseAlgorithm resolves a name produced by Algorithm.String.
func ParseAlgorithm(name string) (Algorithm, error) {
	for a, s := range algorithmNames {
		if s == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", name)
}

// Send is one constituent unicast of a multicast tree, in absolute node
// addresses. Payload carries the relative sub-chain the recipient becomes
// responsible for (To first); it is what a real implementation would place
// in the message's address field.
//
// Payload is a read-only view. The chain algorithms and separate
// addressing hand out windows of the one chain a tree was built from, each
// capped at its own length (cap == len), so an append by a consumer
// reallocates instead of overwriting a sibling's sub-chain. Copy a payload
// before modifying its elements.
type Send struct {
	From, To topology.NodeID
	Payload  chain.Chain
}

// Tree is a multicast implementation: a tree of unicasts rooted at Source
// covering every destination, indexed by position ("slot") in Order.
//
// Order lists every reached node exactly once: the source first, then the
// receivers in the order the construction queue reached them (breadth
// first). Sends[i] holds the sends of Order[i] in issue order — the order
// in which the algorithm emits them at that node, which the schedulers
// must respect per outgoing channel — and is nil for a leaf. Flattening
// Sends slot by slot lists every unicast once, and the receiver of
// flattened send k is Order[k+1]; a sender's slot therefore precedes the
// slots of all its receivers. Validate checks this invariant.
type Tree struct {
	Cube      topology.Cube
	Source    topology.NodeID
	Algorithm Algorithm
	Order     []topology.NodeID
	Sends     [][]Send
}

// Build constructs the multicast tree for algorithm a from src to dests on
// cube c. Duplicate destinations and a destination equal to src are ignored.
// The tree and its storage belong to the caller; Workspace.Build makes the
// same tree in reused storage.
func Build(c topology.Cube, a Algorithm, src topology.NodeID, dests []topology.NodeID) *Tree {
	// The throwaway workspace stays on the stack: only the tree header is
	// copied out, and its slices were allocated for this tree alone.
	var w Workspace
	t := *w.Build(c, a, src, dests)
	return &t
}

// next-selection policies for the unified chain splitter (Section 4.1).
// Each receives the chain and the responsibility range [left, right] of the
// local node ch[left] and returns the chain index to transmit to next.

func nextCenter(ch chain.Chain, left, right int) int {
	return left + (right-left+1)/2 // left + ceil((right-left)/2)
}

func nextHighdim(ch chain.Chain, left, right int) int {
	return ch.FirstWithDelta(left, right)
}

func nextCombine(ch chain.Chain, left, right int) int {
	c := nextCenter(ch, left, right)
	h := nextHighdim(ch, left, right)
	if c > h {
		return c
	}
	return h
}

// buildChainTree runs the generic splitter of Figure 4 with a pluggable
// next-selection policy. Every node, upon "receiving" its sub-chain,
// repeatedly transmits to ch[next] the tail [next+1..right] and shrinks its
// own responsibility to [left..next-1].
//
// A chain of m+1 nodes yields exactly m sends, and each sender emits all of
// its sends in one run of the inner loop, so the sends live in one
// contiguous array and each sender's list is a capped window of it. The job
// queue is the tree's Order: job h > 0 is the receiver of send h-1. Every
// payload is a capped window of ch itself: the tree owns ch from here on.
func (w *Workspace) buildChainTree(c topology.Cube, a Algorithm, src topology.NodeID, ch chain.Chain, policy func(chain.Chain, int, int) int) *Tree {
	t := w.newTree(c, a, src, len(ch))
	// Presized to the m sends, so the array never moves under the windows.
	sends := reuse(w.sends, len(ch)-1)
	queue := append(reuse(w.queue, len(ch)), splitJob{0, len(ch) - 1})
	for head := 0; head < len(queue); head++ {
		left, right := queue[head].left, queue[head].right
		from := t.abs(ch[left])
		first := len(sends)
		for right > left {
			next := policy(ch, left, right)
			if next <= left || next > right {
				panic(fmt.Sprintf("core: policy returned %d outside (%d,%d]", next, left, right))
			}
			sends = append(sends, Send{From: from, To: t.abs(ch[next]), Payload: ch[next : right+1 : right+1]})
			queue = append(queue, splitJob{next, right})
			right = next - 1
		}
		t.add(from, window(sends, first))
	}
	w.sends, w.queue = sends, queue
	return t
}

// splitJob is a chain splitter's pending node: the responsibility range
// [left, right] of ch[left].
type splitJob struct{ left, right int }

// window returns sends[first:] capped at its length, or nil when empty.
func window(sends []Send, first int) []Send {
	n := len(sends)
	if n == first {
		return nil
	}
	return sends[first:n:n]
}

// add appends the next slot: node v and its sends.
func (t *Tree) add(v topology.NodeID, sends []Send) {
	t.Order = append(t.Order, v)
	t.Sends = append(t.Sends, sends)
}

// abs converts a relative canonical address to an absolute address for this
// tree's cube and source.
func (t *Tree) abs(rel topology.NodeID) topology.NodeID {
	return t.Cube.Canon(rel ^ t.Cube.Canon(t.Source))
}

// Unicasts returns every constituent unicast, senders in Order and each
// sender's sends in issue order.
func (t *Tree) Unicasts() []Send {
	out := make([]Send, 0, t.NumUnicasts())
	for _, sends := range t.Sends {
		out = append(out, sends...)
	}
	return out
}

// NumUnicasts returns the number of constituent unicasts, which is also the
// number of receivers: a tree reaches every node at most once.
func (t *Tree) NumUnicasts() int {
	return len(t.Order) - 1
}

// Destinations returns the set of nodes that receive the message, in
// ascending address order. For chain algorithms this equals the destination
// set; for SFBinomial it also includes relay processors.
func (t *Tree) Destinations() []topology.NodeID {
	out := slices.Clone(t.Order[1:])
	slices.Sort(out)
	return out
}

// Parent returns each receiver's sender. The source has no entry.
func (t *Tree) Parent() map[topology.NodeID]topology.NodeID {
	p := make(map[topology.NodeID]topology.NodeID, t.NumUnicasts())
	for _, sends := range t.Sends {
		for _, s := range sends {
			p[s.To] = s.From
		}
	}
	return p
}

// reachSlots marks R_u for u = Order[su] by slot: u and every node that
// receives through it. Receivers follow their senders in Order, so one
// forward pass over the flattened sends finds the whole subtree.
func (t *Tree) reachSlots(su int) []bool {
	in := make([]bool, len(t.Order))
	in[su] = true
	k := 1
	for i, sends := range t.Sends {
		for range sends {
			if in[i] {
				in[k] = true
			}
			k++
		}
	}
	return in
}

// Reachable returns R_u (Definition 3): the nodes that receive the message
// directly or indirectly through u, plus u itself.
func (t *Tree) Reachable(u topology.NodeID) map[topology.NodeID]bool {
	su := slices.Index(t.Order, u)
	if su < 0 {
		return map[topology.NodeID]bool{u: true}
	}
	r := map[topology.NodeID]bool{}
	for i, in := range t.reachSlots(su) {
		if in {
			r[t.Order[i]] = true
		}
	}
	return r
}

// Validate panics unless the tree is a well-formed multicast in slot form:
// Order starts at the source and lists no node twice, Sends is aligned with
// Order, every send is stored under its sender, the receiver of flattened
// send k is Order[k+1], and every sender was reached before sending.
func (t *Tree) Validate() {
	if len(t.Order) == 0 || t.Order[0] != t.Source {
		panic("core: Order must start at the source")
	}
	if len(t.Sends) != len(t.Order) {
		panic(fmt.Sprintf("core: %d send lists for %d nodes", len(t.Sends), len(t.Order)))
	}
	seen := make(map[topology.NodeID]bool, len(t.Order))
	for _, v := range t.Order {
		if seen[v] {
			panic(fmt.Sprintf("core: node %d reached twice", v))
		}
		seen[v] = true
	}
	k := 1
	for i, sends := range t.Sends {
		if len(sends) > 0 && k <= i {
			panic(fmt.Sprintf("core: node %d sends before receiving", t.Order[i]))
		}
		for _, s := range sends {
			if s.From != t.Order[i] {
				panic("core: send stored under wrong sender")
			}
			if k >= len(t.Order) || s.To != t.Order[k] {
				panic(fmt.Sprintf("core: send %d->%d does not reach slot %d", s.From, s.To, k))
			}
			k++
		}
	}
	if k != len(t.Order) {
		panic(fmt.Sprintf("core: %d sends reach %d nodes", k-1, len(t.Order)-1))
	}
}
