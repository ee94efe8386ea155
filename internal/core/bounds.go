package core

import "hypercube/internal/bits"

// StepLowerBound returns the information-theoretic minimum number of steps
// any unicast-based multicast to m destinations needs in an n-cube under
// the port model:
//
//   - one-port: the number of informed nodes at most doubles per step, so
//     ceil(log2(m+1)) steps are required — the paper's tight bound, which
//     U-cube achieves;
//   - all-port: every informed node can inform up to n new nodes per step
//     (one per channel), so the informed count grows at most (n+1)-fold,
//     requiring ceil(log_{n+1}(m+1)) steps.
func StepLowerBound(pm PortModel, n, m int) int {
	if m <= 0 {
		return 0
	}
	switch pm {
	case OnePort:
		return bits.CeilLog2(m + 1)
	case AllPort:
		steps, informed := 0, 1
		for informed < m+1 {
			informed *= n + 1
			steps++
		}
		return steps
	default:
		panic("core: unknown port model")
	}
}

// Height returns the tree's depth in unicast hops — the minimum number of
// steps its schedule can possibly take on any port model.
func (t *Tree) Height() int {
	depth := make([]int, len(t.Order))
	max, k := 0, 1
	for i, sends := range t.Sends {
		for range sends {
			depth[k] = depth[i] + 1
			if depth[k] > max {
				max = depth[k]
			}
			k++
		}
	}
	return max
}
