package chain

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hypercube/internal/bits"
	"hypercube/internal/topology"
)

// fuzzChain converts arbitrary bytes into a well-formed relative multicast
// chain in an n-cube: distinct ascending values starting at 0.
func fuzzChain(n int, raw []byte) Chain {
	size := 1 << uint(n)
	seen := map[int]bool{0: true}
	ch := Chain{0}
	for _, b := range raw {
		v := int(b) % size
		if !seen[v] {
			seen[v] = true
			ch = append(ch, topology.NodeID(v))
		}
	}
	sort.Slice(ch, func(i, j int) bool { return ch[i] < ch[j] })
	return ch
}

// FuzzWeightedSortInvariants checks Theorem 5's properties plus
// fast-variant equivalence on arbitrary inputs.
func FuzzWeightedSortInvariants(f *testing.F) {
	f.Add(uint8(4), []byte{1, 3, 5, 7, 11, 12, 14, 15})
	f.Add(uint8(6), []byte{9, 60, 2, 2, 2, 41})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(8), []byte{255, 254, 253, 1, 0, 128, 64, 32, 16})
	f.Fuzz(func(t *testing.T, dim uint8, raw []byte) {
		n := 1 + int(dim)%8
		orig := fuzzChain(n, raw)
		a := make(Chain, len(orig))
		copy(a, orig)
		b := make(Chain, len(orig))
		copy(b, orig)
		a.WeightedSort(n)
		b.WeightedSortFast(n)
		if len(a) != len(b) {
			t.Fatal("length changed")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("variants diverge: %v vs %v (input %v)", a, b, orig)
			}
		}
		if a[0] != 0 {
			t.Fatalf("source moved: %v", a)
		}
		if !a.IsCubeOrdered(n) {
			t.Fatalf("not cube-ordered: %v", a)
		}
		if !samePermutation(orig, a) {
			t.Fatalf("not a permutation: %v -> %v", orig, a)
		}
	})
}

// FuzzCubeCenterConsistency: CubeCenter must split any sorted range into
// two runs homogeneous in the split bit.
func FuzzCubeCenterConsistency(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 3, 8, 9})
	f.Fuzz(func(t *testing.T, dim uint8, raw []byte) {
		n := 1 + int(dim)%8
		ch := fuzzChain(n, raw)
		if len(ch) < 1 {
			return
		}
		center := ch.CubeCenter(0, len(ch)-1, n)
		bit := topology.NodeID(1) << uint(n-1)
		for i := 0; i < len(ch); i++ {
			if center <= len(ch)-1 {
				inFirst := i < center
				if (ch[i]&bit == ch[0]&bit) != inFirst {
					t.Fatalf("split bit inconsistent at %d: chain=%v center=%d", i, ch, center)
				}
			}
		}
	})
}

// FuzzRelativePaths: Relative's bitset and sort paths build identical
// chains — ascending, deduplicated, source dropped and 0 first — for
// duplicate destinations, the source among them, both resolution orders,
// and destination counts on both sides of the density threshold in every
// dimension.
func FuzzRelativePaths(f *testing.F) {
	f.Add(uint8(1), uint32(1), uint16(3), int64(1), false)
	f.Add(uint8(4), uint32(5), uint16(0), int64(2), true)
	f.Add(uint8(10), uint32(700), uint16(15), int64(3), false) // just sparse
	f.Add(uint8(10), uint32(700), uint16(16), int64(4), true)  // just dense
	f.Add(uint8(13), uint32(77), uint16(200), int64(5), true)
	f.Add(uint8(20), uint32(1<<20-1), uint16(16383), int64(6), false)
	f.Add(uint8(20), uint32(12345), uint16(16384), int64(7), true)
	f.Fuzz(func(t *testing.T, dim uint8, srcRaw uint32, count uint16, seed int64, lowToHigh bool) {
		n := 1 + int(dim-1)%bits.MaxDim
		res := topology.HighToLow
		if lowToHigh {
			res = topology.LowToHigh
		}
		c := topology.New(n, res)
		src := topology.NodeID(srcRaw % uint32(c.Nodes()))
		// Relative goes dense once len(dests) >= ceil(nodes/64).
		threshold := (c.Nodes() + 63) / 64
		m := int(count) % (2*threshold + 4)
		rng := rand.New(rand.NewSource(seed))
		dests := make([]topology.NodeID, m)
		for i := range dests {
			switch rng.Intn(4) {
			case 0:
				dests[i] = src
			case 1:
				if i > 0 {
					dests[i] = dests[rng.Intn(i)]
					break
				}
				fallthrough
			default:
				dests[i] = topology.NodeID(rng.Intn(c.Nodes()))
			}
		}
		s := c.Canon(src)
		dense := appendDense(Chain{0}, c, s, dests)
		sorted := appendSorted(Chain{0}, c, s, dests)
		if !slices.Equal(dense, sorted) {
			t.Fatalf("%d-cube, %d dests: bitset %v, sort %v", n, m, dense, sorted)
		}
		if got := Relative(c, src, dests); !slices.Equal(got, sorted) {
			t.Fatalf("%d-cube, %d dests: Relative %v, want %v", n, m, got, sorted)
		}
		if sorted[0] != 0 || !sorted.IsDimensionOrdered() {
			t.Fatalf("%d-cube: malformed chain %v", n, sorted)
		}
		for _, d := range dests {
			if r := c.Canon(d) ^ s; r != 0 && !slices.Contains(sorted, r) {
				t.Fatalf("%d-cube: destination %v (relative %v) missing", n, d, r)
			}
		}
	})
}
