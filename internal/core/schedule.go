package core

import (
	"fmt"
	"slices"
	"sync"

	"hypercube/internal/bits"
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
	Unicasts []Unicast // ordered by (Step, From, To)

	// recv[i] is the step at which Tree.Order[i] received the message;
	// the source's is 0.
	recv []int
	// slots maps a node to its slot, built on first use.
	slotsOnce sync.Once
	slots     map[topology.NodeID]int32
}

// Steps returns the total number of steps: the largest receive step.
func (s *Schedule) Steps() int {
	max := 0
	for _, st := range s.recv {
		if st > max {
			max = st
		}
	}
	return max
}

// RecvStep returns the step at which node v received the message and
// whether v is reached at all (the source reports step 0, true). The first
// call indexes the tree's nodes once; every call is then a single lookup.
func (s *Schedule) RecvStep(v topology.NodeID) (int, bool) {
	i, ok := s.slot(v)
	if !ok {
		return 0, false
	}
	return s.recv[i], true
}

// slot returns v's slot in s.Tree.Order through an index built on first
// use. A workspace that reuses the schedule resets slotsOnce and keeps the
// map, which the next first use clears and refills.
func (s *Schedule) slot(v topology.NodeID) (int, bool) {
	s.slotsOnce.Do(func() {
		if s.slots == nil {
			s.slots = make(map[topology.NodeID]int32, len(s.Tree.Order))
		}
		clear(s.slots)
		for i, u := range s.Tree.Order {
			s.slots[u] = int32(i)
		}
	})
	i, ok := s.slots[v]
	return int(i), ok
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
//
// The schedule and its storage belong to the caller; Workspace.NewSchedule
// makes the same schedule in reused storage.
func NewSchedule(t *Tree, pm PortModel) *Schedule {
	// As in Build, only the schedule header leaves the throwaway
	// workspace.
	var w Workspace
	s := w.NewSchedule(t, pm)
	return &Schedule{Tree: s.Tree, Port: s.Port, Unicasts: s.Unicasts, recv: s.recv}
}

// launch records the unicast of a send at step and the step at which its
// receiver, Tree.Order[to], holds the message.
func (s *Schedule) launch(from, to topology.NodeID, slot, step int) {
	s.Unicasts = append(s.Unicasts, Unicast{From: from, To: to, Step: step})
	s.recv[slot] = step
}

func (w *Workspace) scheduleOnePort(t *Tree) *Schedule {
	s := w.newSchedule(t, OnePort)
	// Process nodes in slot order: every receiver's slot follows its
	// sender's, so a node's receive step is known before it is processed.
	k := 1 // slot of the next send's receiver
	for i, sends := range t.Sends {
		base := s.recv[i]
		if base < 0 {
			panic(fmt.Sprintf("core: node %d scheduled before reached", t.Order[i]))
		}
		for j, snd := range sends {
			s.launch(snd.From, snd.To, k, base+j+1)
			k++
		}
	}
	w.keys = sortUnicasts(s.Unicasts, w.keys)
	return s
}

// pendingSend is a send the all-port scheduler has not launched yet, with
// its first-hop channel and its receiver's slot resolved once.
type pendingSend struct {
	from, to topology.NodeID
	dim      int32
	slot     int32
}

func (w *Workspace) scheduleAllPort(t *Tree) *Schedule {
	s := w.newSchedule(t, AllPort)
	dim := t.Cube.Dim()
	// Every sender's pending sends, in issue order, as a window of one
	// array indexed by the sender's slot; a step compacts each window in
	// place.
	all := reuse(w.pending, t.NumUnicasts())
	pending := reuse(w.pendingBySlot, len(t.Order))
	span := 0 // arcs over every path: no step takes more
	for _, sends := range t.Sends {
		first := len(all)
		for _, snd := range sends {
			all = append(all, pendingSend{snd.From, snd.To, int32(t.Cube.FirstHop(snd.From, snd.To)), int32(len(all) + 1)})
			span += bits.OnesCount(uint32(snd.From ^ snd.To))
		}
		pending = append(pending, all[first:len(all):len(all)])
	}
	w.pending, w.pendingBySlot = all, pending
	remaining := len(all)
	total := remaining
	// The workspace's channel stamps hold the stamp of the step that last
	// took a sender's outgoing channel (indexed by the sender's slot times
	// dim plus the channel's dimension), and its arc stamps the arcs taken
	// in the current step. Every step draws a stamp that no cell holds, so
	// it starts with nothing taken without clearing anything.
	usedChannel := w.channelStamps(len(t.Order) * dim)
	w.arcs.reserve(span)
	arcs := reuse(w.path, dim)
	for step := 1; remaining > 0; step++ {
		if step > 2*total+len(t.Order)+8 {
			panic("core: all-port scheduler failed to make progress")
		}
		stamp := w.nextStamp()
		// Deterministic sender order: slot order.
		for i, sends := range pending {
			if len(sends) == 0 {
				continue
			}
			if recv := s.recv[i]; recv < 0 || recv >= step {
				continue // not yet holding the message at this step
			}
			kept := sends[:0]
			for _, snd := range sends {
				ch := i*dim + int(snd.dim)
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
					if w.arcs.taken(a, stamp) {
						conflict = true
						break
					}
				}
				if conflict {
					kept = append(kept, snd)
					continue
				}
				for _, a := range arcs {
					w.arcs.take(a, stamp)
				}
				s.launch(snd.from, snd.to, int(snd.slot), step)
				remaining--
			}
			pending[i] = kept
		}
	}
	w.path = arcs
	w.keys = sortUnicasts(s.Unicasts, w.keys)
	return s
}

// sortUnicasts orders a schedule by (Step, From, To). Every node receives
// at most once, so the key has no ties. Addresses fit in bits.MaxDim bits,
// so each unicast packs into one integer key Step<<40 | From<<20 | To, and
// the keys sort without a comparator callback. The keys are built in the
// storage of keys, which is returned for reuse.
func sortUnicasts(us []Unicast, keys []uint64) []uint64 {
	const w, mask = bits.MaxDim, 1<<bits.MaxDim - 1
	keys = reuse(keys, len(us))
	for _, u := range us {
		keys = append(keys, uint64(u.Step)<<(2*w)|uint64(u.From)<<w|uint64(u.To))
	}
	slices.Sort(keys)
	for i, k := range keys {
		us[i] = Unicast{From: topology.NodeID(k >> w & mask), To: topology.NodeID(k & mask), Step: int(k >> (2 * w))}
	}
	return keys
}
