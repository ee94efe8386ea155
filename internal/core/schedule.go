package core

import (
	"cmp"
	"fmt"
	"slices"

	"hypercube/internal/topology"
)

// PortModel selects the node/router interface of Section 1: how many
// internal channel pairs connect the local processor to its router.
type PortModel int

const (
	// OnePort nodes transmit and receive at most one message per step.
	OnePort PortModel = iota
	// AllPort nodes own an internal channel per external channel and may
	// send simultaneously on every dimension.
	AllPort
)

func (p PortModel) String() string {
	switch p {
	case OnePort:
		return "one-port"
	case AllPort:
		return "all-port"
	default:
		return fmt.Sprintf("PortModel(%d)", int(p))
	}
}

// Unicast is a scheduled constituent message: the paper's
// (u, v, P(u,v), t) tuple with the path left implicit in E-cube routing.
type Unicast struct {
	From, To topology.NodeID
	Step     int // 1-based synchronous time step
}

// Schedule is a stepwise execution of a multicast tree.
type Schedule struct {
	Tree     *Tree
	Port     PortModel
	Unicasts []Unicast
	// Recv maps every reached node to the step at which it received the
	// message; the source maps to 0.
	Recv map[topology.NodeID]int
}

// Steps returns the total number of steps: the largest receive step.
func (s *Schedule) Steps() int {
	max := 0
	for _, u := range s.Unicasts {
		if u.Step > max {
			max = u.Step
		}
	}
	return max
}

// RecvStep returns the step at which node v received the message and
// whether v is reached at all (the source reports step 0, true).
func (s *Schedule) RecvStep(v topology.NodeID) (int, bool) {
	st, ok := s.Recv[v]
	return st, ok
}

// NewSchedule runs the stepwise execution model for the given port model.
//
// One-port: each node issues its sends on consecutive steps beginning the
// step after it received the message; one send and one receive per node per
// step. This is the model under which U-cube is optimal.
//
// All-port: per step a node may send on every outgoing channel
// simultaneously, but (a) at most one message per channel per step, with
// same-channel sends issuing in algorithm order, and (b) all unicasts
// launched in the same step must be pairwise arc-disjoint — a send that
// would contend is deferred to a later step. Under the paper's theorems the
// Maxport, Combine, and W-sort trees never defer; U-cube trees exhibit the
// serialization visible in Figure 3(d).
func NewSchedule(t *Tree, pm PortModel) *Schedule {
	switch pm {
	case OnePort:
		return scheduleOnePort(t)
	case AllPort:
		return scheduleAllPort(t)
	default:
		panic(fmt.Sprintf("core: unknown port model %v", pm))
	}
}

// newSchedule returns an empty schedule sized for t's unicasts, with the
// source reached at step 0.
func newSchedule(t *Tree, pm PortModel) *Schedule {
	n := t.NumUnicasts()
	s := &Schedule{
		Tree:     t,
		Port:     pm,
		Unicasts: make([]Unicast, 0, n),
		Recv:     make(map[topology.NodeID]int, n+1),
	}
	s.Recv[t.Source] = 0
	return s
}

func scheduleOnePort(t *Tree) *Schedule {
	s := newSchedule(t, OnePort)
	// Process nodes in reception order; a FIFO over t.Order works because
	// construction order reaches parents before children.
	for _, v := range t.Order {
		base, ok := s.Recv[v]
		if !ok {
			panic(fmt.Sprintf("core: node %d scheduled before reached", v))
		}
		for k, snd := range t.Sends[v] {
			step := base + k + 1
			s.Unicasts = append(s.Unicasts, Unicast{From: snd.From, To: snd.To, Step: step})
			s.Recv[snd.To] = step
		}
	}
	sortUnicasts(s.Unicasts)
	return s
}

// pendingSend is a send the all-port scheduler has not launched yet, with
// its first-hop channel resolved once.
type pendingSend struct {
	from, to topology.NodeID
	dim      int
}

func scheduleAllPort(t *Tree) *Schedule {
	s := newSchedule(t, AllPort)
	dim := t.Cube.Dim()
	// Every sender's pending sends, in issue order, as a window of one
	// array indexed by the sender's position in t.Order; a step compacts
	// each window in place.
	all := make([]pendingSend, 0, cap(s.Unicasts))
	pending := make([][]pendingSend, len(t.Order))
	for i, v := range t.Order {
		first := len(all)
		for _, snd := range t.Sends[v] {
			all = append(all, pendingSend{snd.From, snd.To, t.Cube.FirstHop(snd.From, snd.To)})
		}
		pending[i] = all[first:len(all):len(all)]
	}
	remaining := len(all)
	total := remaining
	// claimed and usedChannel hold the step that last took an arc, or a
	// sender's outgoing channel (indexed by the sender's Order position
	// times dim plus the channel's dimension). Stamping with the step
	// number makes every step start with nothing claimed without clearing
	// anything.
	claimed := make(map[topology.Arc]int32, total)
	usedChannel := make([]int32, len(t.Order)*dim)
	arcs := make([]topology.Arc, 0, dim)
	for step := 1; remaining > 0; step++ {
		if step > 2*total+len(t.Order)+8 {
			panic("core: all-port scheduler failed to make progress")
		}
		stamp := int32(step)
		// Deterministic sender order: construction order.
		for i, v := range t.Order {
			sends := pending[i]
			if len(sends) == 0 {
				continue
			}
			recv, ok := s.Recv[v]
			if !ok || recv >= step {
				continue // not yet holding the message at this step
			}
			kept := sends[:0]
			for _, snd := range sends {
				ch := i*dim + snd.dim
				if usedChannel[ch] == stamp {
					kept = append(kept, snd)
					continue
				}
				// Whether launched or blocked, the channel is spoken
				// for this step: later sends on it keep their issue
				// order.
				usedChannel[ch] = stamp
				arcs = t.Cube.AppendPathArcs(arcs[:0], snd.from, snd.to)
				conflict := false
				for _, a := range arcs {
					if claimed[a] == stamp {
						conflict = true
						break
					}
				}
				if conflict {
					kept = append(kept, snd)
					continue
				}
				for _, a := range arcs {
					claimed[a] = stamp
				}
				s.Unicasts = append(s.Unicasts, Unicast{From: snd.from, To: snd.to, Step: step})
				s.Recv[snd.to] = step
				remaining--
			}
			pending[i] = kept
		}
	}
	sortUnicasts(s.Unicasts)
	return s
}

// sortUnicasts orders a schedule by (Step, From, To). Every node receives
// at most once, so the key has no ties and an unstable sort is exact.
func sortUnicasts(us []Unicast) {
	slices.SortFunc(us, func(a, b Unicast) int {
		if a.Step != b.Step {
			return cmp.Compare(a.Step, b.Step)
		}
		if a.From != b.From {
			return cmp.Compare(a.From, b.From)
		}
		return cmp.Compare(a.To, b.To)
	})
}
