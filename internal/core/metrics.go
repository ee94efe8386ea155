package core

import (
	"fmt"

	"hypercube/internal/topology"
)

// Metrics summarizes the structural properties of a multicast tree that
// determine its performance: how widely it fans out, how much channel
// capacity it consumes, and how often a sender reuses a port (the direct
// cause of the serialization the paper's Figures 3(d) and 8(a) show).
type Metrics struct {
	// Unicasts is the number of constituent messages.
	Unicasts int
	// Height is the tree depth in unicast hops.
	Height int
	// TotalHops is the total channel-traversal count of all unicasts —
	// the network capacity the multicast consumes.
	TotalHops int
	// MaxOutDegree is the largest number of sends issued by one node.
	MaxOutDegree int
	// ChannelReuses counts sender-side port collisions: sends after the
	// first on the same (node, outgoing channel) pair. Zero for Maxport
	// and W-sort trees; positive values force serialization.
	ChannelReuses int
	// Relays counts receiving nodes beyond the destination set; nonzero
	// only for the store-and-forward baseline.
	Relays int
}

func (m Metrics) String() string {
	return fmt.Sprintf("unicasts=%d height=%d hops=%d maxdeg=%d reuses=%d relays=%d",
		m.Unicasts, m.Height, m.TotalHops, m.MaxOutDegree, m.ChannelReuses, m.Relays)
}

// ComputeMetrics derives the tree's structural metrics. dests is the
// intended destination set, needed to count relays; pass nil to skip relay
// accounting.
func (t *Tree) ComputeMetrics(dests []topology.NodeID) Metrics {
	m := Metrics{Height: t.Height()}
	for _, sends := range t.Sends {
		if len(sends) > m.MaxOutDegree {
			m.MaxOutDegree = len(sends)
		}
		var used uint32 // outgoing channels taken so far, one bit per dimension
		for _, s := range sends {
			m.Unicasts++
			m.TotalHops += topology.Distance(s.From, s.To)
			bit := uint32(1) << uint(t.Cube.FirstHop(s.From, s.To))
			if used&bit != 0 {
				m.ChannelReuses++
			}
			used |= bit
		}
	}
	if dests != nil {
		m.Relays = len(t.Relays(dests))
	}
	return m
}
