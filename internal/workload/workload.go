// Package workload generates the randomized destination sets of the
// paper's evaluation (Section 5) and runs the experiment sweeps behind each
// figure: stepwise comparisons (Figures 9–10) and simulated machine delays
// (Figures 11–14).
package workload

import (
	"fmt"
	"math/rand"

	"hypercube/internal/bits"
	"hypercube/internal/lazyrand"
	"hypercube/internal/topology"
)

// Generator draws random multicast workloads reproducibly.
type Generator struct {
	cube topology.Cube
	rng  *rand.Rand
	pool []topology.NodeID // Dests' scratch, rebuilt by every draw
}

// NewGenerator creates a generator for cube seeded deterministically.
func NewGenerator(cube topology.Cube, seed int64) *Generator {
	return &Generator{cube: cube, rng: lazyrand.New(seed)}
}

// Dests draws m distinct destinations uniformly from the cube, excluding
// src — the paper's "destination sets chosen randomly". It panics if m
// exceeds N-1.
func (g *Generator) Dests(src topology.NodeID, m int) []topology.NodeID {
	return g.AppendDests(make([]topology.NodeID, 0, max(m, 0)), src, m)
}

// AppendDests is Dests appending the draw to dst, so a caller that passes
// its previous draw truncated to length 0 reuses that draw's storage.
func (g *Generator) AppendDests(dst []topology.NodeID, src topology.NodeID, m int) []topology.NodeID {
	n := g.cube.Nodes()
	if m < 0 || m > n-1 {
		panic(fmt.Sprintf("workload: cannot draw %d destinations from a %d-node cube", m, n))
	}
	// Partial Fisher-Yates over the node space minus src.
	pool := g.pool[:0]
	if cap(pool) < n-1 {
		pool = make([]topology.NodeID, 0, n-1)
	}
	for v := 0; v < n; v++ {
		if topology.NodeID(v) != src {
			pool = append(pool, topology.NodeID(v))
		}
	}
	g.pool = pool
	for i := 0; i < m; i++ {
		j := i + g.rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
		dst = append(dst, pool[i])
	}
	return dst
}

// Reseed rebinds g to cube and restarts it at seed: it then draws exactly
// what NewGenerator(cube, seed) draws, in the storage it already has.
func (g *Generator) Reseed(cube topology.Cube, seed int64) {
	g.cube = cube
	g.rng.Seed(seed)
}

// Source draws a uniformly random source node.
func (g *Generator) Source() topology.NodeID {
	return topology.NodeID(g.rng.Intn(g.cube.Nodes()))
}

// DestCounts returns the x-axis grid for an n-cube sweep: every count from
// 1 to N-1 when N <= 128, otherwise about targetPoints counts evenly spaced
// across [1, N-1] (always including 1 and N-1). The paper's plots span the
// full destination range.
func DestCounts(n, targetPoints int) []int {
	max := bits.Pow2(n) - 1
	if max <= 127 || targetPoints >= max {
		out := make([]int, max)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	if targetPoints < 2 {
		targetPoints = 2
	}
	out := []int{1}
	step := float64(max-1) / float64(targetPoints-1)
	for i := 1; i < targetPoints-1; i++ {
		v := 1 + int(float64(i)*step+0.5)
		if v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}
