package core

import (
	"testing"

	"hypercube/internal/topology"
)

// fuzzInstance decodes arbitrary bytes into a multicast instance.
func fuzzInstance(dim, srcRaw uint8, raw []byte) (topology.Cube, topology.NodeID, []topology.NodeID) {
	n := 1 + int(dim)%8
	c := topology.New(n, topology.HighToLow)
	src := topology.NodeID(int(srcRaw) % c.Nodes())
	seen := map[topology.NodeID]bool{src: true}
	var dests []topology.NodeID
	for _, b := range raw {
		v := topology.NodeID(int(b) % c.Nodes())
		if !seen[v] {
			seen[v] = true
			dests = append(dests, v)
		}
	}
	return c, src, dests
}

// FuzzMulticastInvariants: every algorithm covers exactly the destination
// set with a well-formed tree, and the contention-guaranteed algorithms
// pass Definition 4 under their intended port models.
func FuzzMulticastInvariants(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{1, 3, 5, 7, 11, 12, 14, 15})
	f.Add(uint8(4), uint8(0), []byte{9, 10, 11})
	f.Add(uint8(6), uint8(63), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), uint8(1), []byte{0})
	f.Fuzz(func(t *testing.T, dim, srcRaw uint8, raw []byte) {
		c, src, dests := fuzzInstance(dim, srcRaw, raw)
		if len(dests) == 0 {
			return
		}
		for _, a := range Algorithms() {
			tr := Build(c, a, src, dests)
			tr.Validate()
			got := map[topology.NodeID]bool{}
			for _, v := range tr.Destinations() {
				got[v] = true
			}
			for _, d := range dests {
				if !got[d] {
					t.Fatalf("%v: destination %v missed", a, d)
				}
			}
		}
		for _, g := range []struct {
			a  Algorithm
			pm PortModel
		}{{UCube, OnePort}, {Maxport, AllPort}, {WSort, AllPort}} {
			s := NewSchedule(Build(c, g.a, src, dests), g.pm)
			if cs := CheckContention(s); len(cs) != 0 {
				t.Fatalf("%v/%v: %v", g.a, g.pm, cs[0])
			}
		}
	})
}

// FuzzDistributedEquivalence: the local-protocol execution always matches
// the central construction.
func FuzzDistributedEquivalence(f *testing.F) {
	f.Add(uint8(4), uint8(3), []byte{1, 5, 9, 13})
	f.Add(uint8(5), uint8(31), []byte{30, 29, 28, 1, 2, 3})
	f.Fuzz(func(t *testing.T, dim, srcRaw uint8, raw []byte) {
		c, src, dests := fuzzInstance(dim, srcRaw, raw)
		for _, a := range Algorithms() {
			want := Build(c, a, src, dests)
			got := BuildDistributed(c, a, src, dests)
			if err := SameTree(want, got); err != nil {
				t.Fatalf("%v: %v", a, err)
			}
		}
	})
}
