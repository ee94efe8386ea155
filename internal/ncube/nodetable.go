package ncube

import (
	"hypercube/internal/topology"
)

// denseNodeLimit bounds the dense per-node software-state table: cubes
// with at most this many nodes (dim <= 14) use a flat slice indexed by
// address — the allocation-free hot path of every paper workload — while
// giant cubes (dim 15 up to bits.MaxDim = 20, a million nodes) switch to
// a map holding state only for the nodes a tree actually touches. A
// 20-cube multicast to 64 destinations allocates 65 node states instead
// of 2^20. The backends are observationally identical (the sparse
// regression suite pins reflect.DeepEqual equality on overlapping dims);
// it is a var, not a const, so tests can force the sparse backend onto
// small cubes and diff it against dense.
var denseNodeLimit = 1 << 14

// opTable is a treeOp's node software-state store: dense below
// denseNodeLimit, sparse (lazily populated map) above. Exactly one
// backend is active. Lookups never iterate the map, so the backend
// cannot influence event order.
type opTable struct {
	dense  []opNode
	sparse map[topology.NodeID]*opNode
}

// init rebinds the table to op over a cube of n nodes, reusing backing
// storage where shapes allow; hint is the expected number of touched
// nodes under the sparse backend.
func (ot *opTable) init(op *treeOp, n, hint int) {
	if n <= denseNodeLimit {
		ot.sparse = nil
		if cap(ot.dense) < n {
			ot.dense = make([]opNode, n)
		}
		ot.dense = ot.dense[:n]
		for i := range ot.dense {
			ot.dense[i] = opNode{op: op}
		}
		return
	}
	ot.dense = nil
	if ot.sparse == nil {
		ot.sparse = make(map[topology.NodeID]*opNode, hint)
	} else {
		clear(ot.sparse)
	}
}

// state returns node v's per-op state, materializing it on first touch
// under the sparse backend.
func (ot *opTable) state(op *treeOp, v topology.NodeID) *opNode {
	if ot.dense != nil {
		return &ot.dense[v]
	}
	st, ok := ot.sparse[v]
	if !ok {
		st = &opNode{op: op}
		ot.sparse[v] = st
	}
	return st
}

// release drops the finished op's references so a pooled session retains
// no trees: dense entries keep their storage with sends cleared; the
// sparse map is emptied outright (its states belong to the finished op).
func (ot *opTable) release() {
	for i := range ot.dense {
		ot.dense[i].sends = nil
	}
	clear(ot.sparse)
}
