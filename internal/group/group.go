// Package group provides MPI-style process groups over the hypercube: an
// ordered set of member nodes addressed by rank, with collective
// operations mapped onto the multicast machinery. The paper's motivation
// is exactly this layer — MPI communicators and HPF data redistribution
// need group broadcast/multicast primitives, and the all-port algorithms
// make them fast.
package group

import (
	"fmt"
	"sort"

	"hypercube/internal/core"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
)

// Comm is a communicator: an ordered subset of the cube's nodes. Rank i is
// member i of the founding slice. Comms are immutable after creation.
type Comm struct {
	cube    topology.Cube
	members []topology.NodeID
	rankOf  map[topology.NodeID]int
}

// New creates a communicator over the given members (rank order as given).
// Members must be distinct, valid node addresses; at least one is needed.
func New(cube topology.Cube, members []topology.NodeID) (*Comm, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("group: empty communicator")
	}
	c := &Comm{
		cube:    cube,
		members: append([]topology.NodeID(nil), members...),
		rankOf:  make(map[topology.NodeID]int, len(members)),
	}
	for i, v := range c.members {
		if !cube.Contains(v) {
			return nil, fmt.Errorf("group: member %d outside the %d-cube", v, cube.Dim())
		}
		if _, dup := c.rankOf[v]; dup {
			return nil, fmt.Errorf("group: duplicate member %d", v)
		}
		c.rankOf[v] = i
	}
	return c, nil
}

// World returns the communicator of every node, rank = address.
func World(cube topology.Cube) *Comm {
	members := make([]topology.NodeID, cube.Nodes())
	for i := range members {
		members[i] = topology.NodeID(i)
	}
	c, err := New(cube, members)
	if err != nil {
		panic(err) // cannot happen
	}
	return c
}

// Cube returns the underlying topology.
func (c *Comm) Cube() topology.Cube { return c.cube }

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.members) }

// Node returns the node address of a rank; it panics on a bad rank.
func (c *Comm) Node(rank int) topology.NodeID {
	if rank < 0 || rank >= len(c.members) {
		panic(fmt.Sprintf("group: rank %d outside [0,%d)", rank, len(c.members)))
	}
	return c.members[rank]
}

// Rank returns a node's rank and whether the node is a member.
func (c *Comm) Rank(v topology.NodeID) (int, bool) {
	r, ok := c.rankOf[v]
	return r, ok
}

// Members returns the rank-ordered member list (a copy).
func (c *Comm) Members() []topology.NodeID {
	return append([]topology.NodeID(nil), c.members...)
}

// Sub builds a sub-communicator from the given ranks (new ranks follow the
// argument order).
func (c *Comm) Sub(ranks []int) (*Comm, error) {
	members := make([]topology.NodeID, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= len(c.members) {
			return nil, fmt.Errorf("group: rank %d outside [0,%d)", r, len(c.members))
		}
		members[i] = c.members[r]
	}
	return New(c.cube, members)
}

// Split partitions the communicator by color(rank), returning one
// sub-communicator per color with members in rank order — the shape of
// MPI_Comm_split.
func (c *Comm) Split(color func(rank int) int) map[int]*Comm {
	buckets := map[int][]topology.NodeID{}
	var colors []int
	for r, v := range c.members {
		k := color(r)
		if _, seen := buckets[k]; !seen {
			colors = append(colors, k)
		}
		buckets[k] = append(buckets[k], v)
	}
	sort.Ints(colors)
	out := make(map[int]*Comm, len(colors))
	for _, k := range colors {
		sub, err := New(c.cube, buckets[k])
		if err != nil {
			panic(err) // members came from a valid communicator
		}
		out[k] = sub
	}
	return out
}

// Bcast builds the multicast tree delivering from the root rank to every
// other member, using the given algorithm.
func (c *Comm) Bcast(a core.Algorithm, rootRank int) *core.Tree {
	root := c.Node(rootRank)
	dests := make([]topology.NodeID, 0, len(c.members)-1)
	for _, v := range c.members {
		if v != root {
			dests = append(dests, v)
		}
	}
	return core.Build(c.cube, a, root, dests)
}

// BcastSim builds and simulates the group broadcast on the machine model,
// returning per-member receipt times.
func (c *Comm) BcastSim(p ncube.Params, a core.Algorithm, rootRank, bytes int) ncube.Result {
	return ncube.Run(p, c.Bcast(a, rootRank), bytes)
}

// Phase runs one broadcast per communicator concurrently on a single
// shared interconnect — a data-redistribution phase in which every group
// leader pushes its block at once. All communicators must share the cube.
func Phase(p ncube.Params, bytes int, a core.Algorithm, groups []*Comm, roots []int) []ncube.Result {
	if len(groups) != len(roots) {
		panic("group: groups and roots length mismatch")
	}
	if len(groups) == 0 {
		return nil
	}
	trees := make([]*core.Tree, len(groups))
	for i, g := range groups {
		if g.cube != groups[0].cube {
			panic("group: Phase requires a common cube")
		}
		trees[i] = g.Bcast(a, roots[i])
	}
	return ncube.RunManyInstrumented(p, trees, bytes, ncube.Instrumentation{})
}
