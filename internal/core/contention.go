package core

import (
	"fmt"

	"hypercube/internal/topology"
)

// Contention describes a violation of Definition 4 between two scheduled
// unicasts: they share at least one channel, and neither disjointness nor
// the ancestor/later-sibling timing condition excuses the overlap.
type Contention struct {
	Earlier, Later Unicast
	SharedArc      topology.Arc
}

func (c Contention) String() string {
	return fmt.Sprintf("contention on %v between (%d->%d @%d) and (%d->%d @%d)",
		c.SharedArc, c.Earlier.From, c.Earlier.To, c.Earlier.Step,
		c.Later.From, c.Later.To, c.Later.Step)
}

// CheckContention evaluates Definition 4 on a scheduled multicast: every
// pair of constituent unicasts must be contention-free. For unicasts
// (u,v,t) and (x,y,tau) with t <= tau this requires either
//
//  1. P(u,v) and P(x,y) are arc-disjoint, or
//  2. t < tau and x is in R_u (the later sender received the message
//     through the earlier one, directly or as a later sibling's subtree).
//
// It returns every violating pair (nil means the schedule is
// contention-free in the sense of the paper).
func CheckContention(s *Schedule) []Contention {
	t := s.Tree
	us := s.Unicasts
	arcs := make([][]topology.Arc, len(us))
	for i, u := range us {
		arcs[i] = t.Cube.PathArcs(u.From, u.To)
	}
	// R_u by slot, walked lazily once per earlier sender's slot. Senders
	// are always reached, so their slots exist.
	reach := make([][]bool, len(t.Order))
	reaches := func(u, x topology.NodeID) bool {
		su, _ := s.slot(u)
		if reach[su] == nil {
			reach[su] = t.reachSlots(su)
		}
		sx, _ := s.slot(x)
		return reach[su][sx]
	}
	var out []Contention
	for i := 0; i < len(us); i++ {
		for j := i + 1; j < len(us); j++ {
			a, b := i, j
			if us[a].Step > us[b].Step {
				a, b = b, a
			}
			shared, ok := sharedArc(arcs[a], arcs[b])
			if !ok {
				continue
			}
			if us[a].Step < us[b].Step && reaches(us[a].From, us[b].From) {
				continue
			}
			out = append(out, Contention{Earlier: us[a], Later: us[b], SharedArc: shared})
		}
	}
	return out
}

// sharedArc returns the first arc of b that a also uses. A path has at
// most dim arcs, so comparing the two directly beats hashing either.
func sharedArc(a, b []topology.Arc) (topology.Arc, bool) {
	for _, y := range b {
		for _, x := range a {
			if x == y {
				return y, true
			}
		}
	}
	return topology.Arc{}, false
}

// Theorem3Holds checks the paper's Theorem 3 on a schedule: any two
// unicasts with a common source node are contention-free. Used by property
// tests as a sanity check of the checker itself.
func Theorem3Holds(s *Schedule) bool {
	for _, c := range CheckContention(s) {
		if c.Earlier.From == c.Later.From {
			return false
		}
	}
	return true
}
