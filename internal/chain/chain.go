// Package chain implements the address-sequence machinery of the paper:
// d0-relative dimension-ordered chains (Section 4.1), cube-ordered chains
// (Definition 5), and the weighted_sort procedure (Figure 7) in both its
// centralized form and an O(m log m) variant equivalent to the distributed
// algorithm of the accompanying technical report.
//
// All chains in this package are expressed in relative canonical space:
// element values are canon(d0) xor canon(di), so the source is always the
// value 0 and E-cube routing resolves the highest-order bit first. The core
// package performs the translation to and from absolute addresses for
// whichever resolution order the target cube uses.
package chain

import (
	"fmt"
	mathbits "math/bits"
	"slices"

	"hypercube/internal/bits"
	"hypercube/internal/topology"
)

// Chain is a sequence of relative canonical node addresses. For a multicast
// chain the first element is the source and equals 0.
type Chain []topology.NodeID

// Relative builds the d0-relative dimension-ordered chain for a multicast
// from src to dests on cube c: destination addresses are canonicalized,
// xored with the canonical source, deduplicated, sorted ascending, and
// prefixed with the source's relative address 0. A destination equal to the
// source is dropped (the source already holds the message).
//
// A dense destination set (c.Nodes() <= 64*len(dests)) is deduplicated and
// ordered through a bitset over the cube, whose size is then at most one
// word per destination; a sparse one is sorted. Both give the same chain.
func Relative(c topology.Cube, src topology.NodeID, dests []topology.NodeID) Chain {
	return AppendRelative(nil, c, src, dests)
}

// AppendRelative appends the chain Relative builds to dst and returns the
// extended slice, so a caller that passes its previous chain truncated to
// length 0 reuses that chain's storage.
func AppendRelative(dst Chain, c topology.Cube, src topology.NodeID, dests []topology.NodeID) Chain {
	c.MustContain(src)
	out := dst
	if need := len(dst) + len(dests) + 1; cap(out) < need {
		out = append(make(Chain, 0, max(need, 2*cap(dst))), dst...)
	}
	out = append(out, 0) // the source
	if c.Nodes() <= 64*len(dests) {
		return appendDense(out, c, c.Canon(src), dests)
	}
	return appendSorted(out, c, c.Canon(src), dests)
}

// appendDense appends the distinct nonzero relative addresses of dests
// (canonical source s) to out in ascending order through a bitset over
// the cube.
func appendDense(out Chain, c topology.Cube, s topology.NodeID, dests []topology.NodeID) Chain {
	words := (c.Nodes() + 63) / 64
	var stack [64]uint64 // cubes up to 4096 nodes need no heap bitset
	set := stack[:min(words, len(stack))]
	if words > len(stack) {
		set = make([]uint64, words)
	}
	for _, d := range dests {
		c.MustContain(d)
		r := c.Canon(d) ^ s
		set[r/64] |= 1 << (r % 64)
	}
	set[0] &^= 1 // the source
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			out = append(out, topology.NodeID(w*64+mathbits.TrailingZeros64(word)))
		}
	}
	return out
}

// appendSorted is appendDense by sorting and compacting, for destination
// sets too sparse to pay for a bitset over the cube.
func appendSorted(out Chain, c topology.Cube, s topology.NodeID, dests []topology.NodeID) Chain {
	first := len(out)
	for _, d := range dests {
		c.MustContain(d)
		if r := c.Canon(d) ^ s; r != 0 {
			out = append(out, r)
		}
	}
	slices.Sort(out[first:])
	return out[:first+len(slices.Compact(out[first:]))]
}

// Absolute translates the chain back to absolute addresses on cube c for
// source src, inverting the Relative transformation.
func (ch Chain) Absolute(c topology.Cube, src topology.NodeID) []topology.NodeID {
	s := c.Canon(src)
	out := make([]topology.NodeID, len(ch))
	for i, r := range ch {
		out[i] = c.Canon(r ^ s)
	}
	return out
}

// IsDimensionOrdered reports whether the chain is strictly ascending, the
// relative-space equivalent of a d0-relative dimension-ordered chain.
func (ch Chain) IsDimensionOrdered() bool {
	for i := 1; i < len(ch); i++ {
		if ch[i-1] >= ch[i] {
			return false
		}
	}
	return true
}

// IsCubeOrdered reports Definition 5: within every subcube of the n-cube,
// the chain's members are contiguous. The check runs in O(n·m) by verifying,
// for each prefix length, that no address prefix recurs after changing.
func (ch Chain) IsCubeOrdered(n int) bool {
	for nS := 0; nS < n; nS++ {
		seen := make(map[uint32]bool, len(ch))
		var cur uint32
		started := false
		for _, v := range ch {
			p := uint32(v) >> uint(nS)
			if started && p == cur {
				continue
			}
			if seen[p] {
				return false // prefix recurred after changing: not contiguous
			}
			seen[p] = true
			cur = p
			started = true
		}
	}
	return true
}

// CubeCenter is the paper's cube_center function: given that ch[first..last]
// lies within a single subcube of dimensionality nS, it returns the starting
// index of the second (nS-1)-dimensional half in chain order. If one half
// contains no nodes it returns last+1 (the entire range is one half).
//
// The range must hold at most two distinct values of bit nS-1, grouped
// contiguously — guaranteed by cube-orderedness.
func (ch Chain) CubeCenter(first, last, nS int) int {
	if nS < 1 {
		panic("chain: CubeCenter requires nS >= 1")
	}
	if first < 0 || last >= len(ch) || first > last {
		panic(fmt.Sprintf("chain: CubeCenter range [%d,%d] invalid for length %d", first, last, len(ch)))
	}
	b := uint32(1) << uint(nS-1)
	lead := uint32(ch[first]) & b
	for i := first + 1; i <= last; i++ {
		if uint32(ch[i])&b != lead {
			return i
		}
	}
	return last + 1
}

// WeightedSort permutes the chain in place per Figure 7 of the paper,
// applied to the whole chain within the n-cube: at every subcube level the
// more populated half is moved ahead of the less populated one, except that
// the half holding position 0 (the source) always stays first. The result
// remains a cube-ordered permutation with ch[0] unchanged (Theorem 5).
func (ch Chain) WeightedSort(n int) {
	if len(ch) == 0 {
		return
	}
	ch.weightedSort(0, len(ch)-1, n)
}

func (ch Chain) weightedSort(first, last, nS int) {
	if last-first < 2 || nS < 1 {
		return
	}
	center := ch.CubeCenter(first, last, nS)
	if center-1 >= first {
		ch.weightedSort(first, center-1, nS-1)
	}
	if center <= last {
		ch.weightedSort(center, last, nS-1)
	}
	if first != 0 && center <= last && (center-first) < (last-center+1) {
		ch.swapHalves(first, center, last)
	}
}

// swapHalves rotates ch[first..last] so that ch[center..last] precedes
// ch[first..center-1], preserving internal order of both halves. Three
// reversals rotate in place without a scratch copy.
func (ch Chain) swapHalves(first, center, last int) {
	slices.Reverse(ch[first:center])
	slices.Reverse(ch[center : last+1])
	slices.Reverse(ch[first : last+1])
}

// WeightedSortFast is an O(m log m) reformulation equivalent to the
// distributed weighted sort of the technical report: instead of physically
// rotating subranges level by level, it recursively writes each subcube's
// more populated half directly into its final position. It produces exactly
// the same permutation as WeightedSort (verified by tests).
func (ch Chain) WeightedSortFast(n int) {
	if len(ch) < 3 {
		return
	}
	out := make(Chain, 0, len(ch))
	out = ch.wsFast(out, 0, len(ch)-1, n, true)
	copy(ch, out)
}

// wsFast appends the weighted ordering of ch[first..last] (a subcube of
// dimensionality nS) to out. holdsSource marks the range containing chain
// position 0, whose half order is never exchanged.
func (ch Chain) wsFast(out Chain, first, last, nS int, holdsSource bool) Chain {
	if last-first < 2 || nS < 1 {
		return append(out, ch[first:last+1]...)
	}
	center := ch.CubeCenter(first, last, nS)
	if center > last { // one half empty: descend with the next split bit
		return ch.wsFast(out, first, last, nS-1, holdsSource)
	}
	loFirst, loLast := first, center-1
	hiFirst, hiLast := center, last
	swap := !holdsSource && (loLast-loFirst+1) < (hiLast-hiFirst+1)
	if swap {
		out = ch.wsFast(out, hiFirst, hiLast, nS-1, false)
		return ch.wsFast(out, loFirst, loLast, nS-1, false)
	}
	out = ch.wsFast(out, loFirst, loLast, nS-1, holdsSource)
	return ch.wsFast(out, hiFirst, hiLast, nS-1, false)
}

// FirstWithDelta returns the smallest index i in [left+1, right] such that
// the first routing hop from ch[left] to ch[i] uses the same channel as the
// first hop from ch[left] to ch[right]; in relative canonical space that
// channel is Delta(ch[left], ch[right]). This is the "highdim" selection of
// the Maxport and Combine algorithms. The chain must be cube-ordered, which
// makes the matching elements a contiguous tail ending at right.
func (ch Chain) FirstWithDelta(left, right int) int {
	x := topology.Delta(ch[left], ch[right])
	i := right
	for i-1 > left && deltaEq(ch[left], ch[i-1], x) {
		i--
	}
	return i
}

func deltaEq(a, b topology.NodeID, x int) bool {
	return a != b && topology.Delta(a, b) == x
}

// MaxDelta returns the largest Delta(ch[0], ch[i]) over the chain, i.e. the
// highest dimension the multicast must cross. The chain must have >= 2
// elements.
func (ch Chain) MaxDelta() int {
	max := -1
	for _, v := range ch[1:] {
		if d := topology.Delta(ch[0], v); d > max {
			max = d
		}
	}
	return max
}

// Validate panics unless the chain is a well-formed multicast chain in the
// n-cube: nonempty, starts at 0, all elements distinct and within range.
func (ch Chain) Validate(n int) {
	if len(ch) == 0 {
		panic("chain: empty chain")
	}
	if ch[0] != 0 {
		panic("chain: relative chain must start at the source (0)")
	}
	limit := topology.NodeID(bits.Pow2(n))
	seen := make(map[topology.NodeID]bool, len(ch))
	for _, v := range ch {
		if v >= limit {
			panic(fmt.Sprintf("chain: element %d outside %d-cube", v, n))
		}
		if seen[v] {
			panic(fmt.Sprintf("chain: duplicate element %d", v))
		}
		seen[v] = true
	}
}
