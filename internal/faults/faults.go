// Package faults is the deterministic fault-injection layer of the
// simulators. The paper's contention-freedom theorems assume a fault-free
// nCUBE-2; this package models the ways a real machine breaks — links that
// die permanently or for a window, nodes that fail-stop, and messages lost
// or truncated in transit — so the protocol layer can be exercised (and
// hardened) against them. A Plan is a complete, seeded fault scenario; an
// Injector evaluates it during a run. Every decision is a pure function of
// the plan, the seed, and the (deterministic) order of queries, so faulty
// executions replay exactly.
package faults

import (
	"fmt"
	"math/rand"

	"hypercube/internal/event"
	"hypercube/internal/lazyrand"
	"hypercube/internal/topology"
)

// Mode selects what a failed channel does to a message whose header
// reaches it.
type Mode int

const (
	// Drop discards the message at the failed channel: every channel the
	// header already held is released and the message silently vanishes —
	// the fail-fast behavior of a router that detects a dead neighbor.
	Drop Mode = iota
	// Stall wedges the message in place: it keeps every channel it has
	// acquired and never makes progress — the behavior of a router that
	// does not detect the failure, which propagates backpressure and can
	// deadlock the surrounding network. Use with a watchdog.
	Stall
)

func (m Mode) String() string {
	switch m {
	case Drop:
		return "drop"
	case Stall:
		return "stall"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// LinkFault takes one directed channel out of service. Until <= From means
// the failure is permanent; otherwise the channel fails during [From,
// Until) and works again afterwards (a transient fault window).
type LinkFault struct {
	Arc topology.Arc
	// From is the failure onset.
	From event.Time
	// Until is the repair time; any value <= From means permanent.
	Until event.Time
}

// Permanent reports whether the fault never heals.
func (lf LinkFault) Permanent() bool { return lf.Until <= lf.From }

// ActiveAt reports whether the channel is failed at time t.
func (lf LinkFault) ActiveAt(t event.Time) bool {
	if t < lf.From {
		return false
	}
	return lf.Permanent() || t < lf.Until
}

// NodeFault fail-stops a node: from At onward it neither sends, receives,
// nor forwards. Its router keeps routing (the nCUBE-2 router is a separate
// component that survives processor halts).
type NodeFault struct {
	Node topology.NodeID
	At   event.Time
}

// Plan is a complete, seeded fault scenario for one simulation run.
// The zero value is the fault-free plan.
type Plan struct {
	// Seed drives the drop/truncate RNG deterministically.
	Seed int64
	// Mode selects drop or stall semantics for failed links.
	Mode Mode
	// Links lists the channel failures.
	Links []LinkFault
	// Nodes lists the fail-stop node crashes.
	Nodes []NodeFault
	// DropRate is the per-message probability of silent loss in transit,
	// in [0, 1).
	DropRate float64
	// TruncateRate is the per-message probability that only a strict
	// prefix of the payload arrives (the receiver detects and discards
	// the corrupt copy), in [0, 1).
	TruncateRate float64
}

// Err reports a malformed plan; nil means well-formed.
func (p Plan) Err() error {
	if p.Mode != Drop && p.Mode != Stall {
		return fmt.Errorf("faults: unknown mode %d", int(p.Mode))
	}
	if p.DropRate < 0 || p.DropRate >= 1 {
		return fmt.Errorf("faults: drop rate %v outside [0, 1)", p.DropRate)
	}
	if p.TruncateRate < 0 || p.TruncateRate >= 1 {
		return fmt.Errorf("faults: truncate rate %v outside [0, 1)", p.TruncateRate)
	}
	for _, lf := range p.Links {
		if lf.From < 0 || lf.Until < 0 {
			return fmt.Errorf("faults: link fault %v has negative time", lf.Arc)
		}
	}
	for _, nf := range p.Nodes {
		if nf.At < 0 {
			return fmt.Errorf("faults: node fault %v has negative time", nf.Node)
		}
	}
	return nil
}

// ErrOn extends Err with topology checks against the cube the plan will
// run on.
func (p Plan) ErrOn(c topology.Cube) error {
	if err := p.Err(); err != nil {
		return err
	}
	for _, lf := range p.Links {
		if int(lf.Arc.From) < 0 || int(lf.Arc.From) >= c.Nodes() {
			return fmt.Errorf("faults: link fault node %v outside %d-cube", lf.Arc.From, c.Dim())
		}
		if lf.Arc.Dim < 0 || lf.Arc.Dim >= c.Dim() {
			return fmt.Errorf("faults: link fault dimension %d outside %d-cube", lf.Arc.Dim, c.Dim())
		}
	}
	for _, nf := range p.Nodes {
		if int(nf.Node) < 0 || int(nf.Node) >= c.Nodes() {
			return fmt.Errorf("faults: node fault %v outside %d-cube", nf.Node, c.Dim())
		}
	}
	return nil
}

// Validate panics on a malformed plan (internal call sites; the public API
// boundary returns Err instead).
func (p Plan) Validate() {
	if err := p.Err(); err != nil {
		panic(err)
	}
}

// Injector evaluates a Plan during one run. It implements the fault hooks
// of both network models (wormhole.FaultModel structurally, and flitsim
// via Cycles).
type Injector struct {
	plan  Plan
	rng   *rand.Rand
	links map[topology.Arc][]LinkFault
	crash map[topology.NodeID]event.Time

	linkHits    int
	drops       int
	truncations int
}

// New builds an injector for the plan. The plan must be well-formed.
func New(p Plan) *Injector {
	p.Validate()
	in := &Injector{
		plan:  p,
		rng:   lazyrand.New(p.Seed),
		links: make(map[topology.Arc][]LinkFault, len(p.Links)),
		crash: make(map[topology.NodeID]event.Time, len(p.Nodes)),
	}
	for _, lf := range p.Links {
		in.links[lf.Arc] = append(in.links[lf.Arc], lf)
	}
	for _, nf := range p.Nodes {
		if at, ok := in.crash[nf.Node]; !ok || nf.At < at {
			in.crash[nf.Node] = nf.At
		}
	}
	return in
}

// Plan returns the scenario the injector evaluates.
func (in *Injector) Plan() Plan { return in.plan }

// LinkDown reports whether channel a is failed at time at.
func (in *Injector) LinkDown(a topology.Arc, at event.Time) bool {
	for _, lf := range in.links[a] {
		if lf.ActiveAt(at) {
			in.linkHits++
			return true
		}
	}
	return false
}

// StallOnLink reports whether failed-link crossings wedge instead of drop.
func (in *Injector) StallOnLink() bool { return in.plan.Mode == Stall }

// NodeDown reports whether node v has fail-stopped by time at.
func (in *Injector) NodeDown(v topology.NodeID, at event.Time) bool {
	t, ok := in.crash[v]
	return ok && at >= t
}

// MessageFate draws the in-transit fate of one message: lost entirely
// (drop), or truncated to truncateTo < bytes (the receiver will discard
// the corrupt copy). truncateTo < 0 means the full payload arrives. Three
// uniforms are always consumed so the random stream's position does not
// depend on earlier outcomes.
func (in *Injector) MessageFate(from, to topology.NodeID, bytes int, at event.Time) (drop bool, truncateTo int) {
	u1, u2, u3 := in.rng.Float64(), in.rng.Float64(), in.rng.Float64()
	_ = from
	_ = to
	_ = at
	if in.plan.DropRate > 0 && u1 < in.plan.DropRate {
		in.drops++
		return true, -1
	}
	if in.plan.TruncateRate > 0 && bytes > 0 && u2 < in.plan.TruncateRate {
		in.truncations++
		return false, int(u3 * float64(bytes)) // strict prefix: in [0, bytes)
	}
	return false, -1
}

// LinkHits counts messages that reached a failed channel.
func (in *Injector) LinkHits() int { return in.linkHits }

// Drops counts messages lost by DropRate.
func (in *Injector) Drops() int { return in.drops }

// Truncations counts messages truncated by TruncateRate.
func (in *Injector) Truncations() int { return in.truncations }

// Cycles adapts the injector to cycle-granular simulators (flitsim): one
// cycle is Tick of simulated time.
type Cycles struct {
	In *Injector
	// Tick is the duration of one cycle (0 means one nanosecond).
	Tick event.Time
}

func (c Cycles) tick() event.Time {
	if c.Tick <= 0 {
		return event.Nanosecond
	}
	return c.Tick
}

// LinkDown reports whether channel a is failed at the given cycle.
func (c Cycles) LinkDown(a topology.Arc, cycle int64) bool {
	return c.In.LinkDown(a, event.Time(cycle)*c.tick())
}

// Drop reports whether a message injected at the given cycle is lost in
// transit (truncation is folded into loss at flit granularity).
func (c Cycles) Drop(from, to topology.NodeID, flits int, cycle int64) bool {
	drop, trunc := c.In.MessageFate(from, to, flits, event.Time(cycle)*c.tick())
	return drop || trunc >= 0
}

// RandomLinks draws k distinct directed channels of cube c as permanent
// link faults, deterministically from seed.
func RandomLinks(c topology.Cube, seed int64, k int) []LinkFault {
	rng := lazyrand.New(seed)
	total := c.Nodes() * c.Dim()
	if k > total {
		k = total
	}
	seen := make(map[topology.Arc]bool, k)
	out := make([]LinkFault, 0, k)
	for len(out) < k {
		a := topology.Arc{
			From: topology.NodeID(rng.Intn(c.Nodes())),
			Dim:  rng.Intn(c.Dim()),
		}
		if seen[a] {
			continue
		}
		seen[a] = true
		out = append(out, LinkFault{Arc: a})
	}
	return out
}
