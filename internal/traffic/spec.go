// Package traffic is the trace-driven traffic engine: it runs a *scenario*
// — a set of timed, optionally dependent collective operations from many
// sources — on a single shared simulated network, instead of the
// one-collective-per-run entry points used for the paper's figures. The
// paper's theorems promise contention-freedom *within* one multicast;
// this package measures what happens *between* them: queueing at
// injection, inter-operation channel contention, and the latency-vs-load
// saturation behavior classic wormhole-network studies characterize.
//
// A scenario is a canonical JSON spec. Arrival semantics:
//
//   - every op has an arrival instant: an absolute `at_us`, and/or
//     `after` (op IDs that must complete first) plus an optional
//     `delay_us` think time measured from the last dependency's
//     completion;
//   - seeded open-loop (Poisson) and closed-loop generators expand to
//     explicit op lists at canonicalization, so the executed trace is
//     always fully explicit and reproducible — seeds live in the spec,
//     never in wall clock.
//
// Determinism rule: a canonical spec plus the machine parameters fully
// determines every event of the simulation. Canonicalization is
// idempotent, so the canonical JSON form both keys the server's result
// cache and round-trips byte-identically.
package traffic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"hypercube/internal/collective"
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/faults"
	"hypercube/internal/lazyrand"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/vc"
	"hypercube/internal/workload"
)

// Op kinds understood by the engine. The last three are the
// data-carrying reduction collectives: the engine synthesizes seeded
// per-node payload vectors, threads them through the wormhole schedule,
// and verifies the final data against the analytic expectation — a
// completed op of these kinds is also a proved-correct one.
const (
	KindMulticast     = "multicast"
	KindBroadcast     = "broadcast"
	KindScatter       = "scatter"
	KindGather        = "gather"
	KindAllGather     = "allgather"
	KindGroupPhase    = "group-phase"
	KindFTMulticast   = "fault-tolerant-multicast"
	KindReduceScatter = "reduce-scatter"
	KindAllReduce     = "allreduce"
	KindAllToAll      = "alltoall"
)

// rootlessKind reports whether ops of this kind have no initiating root;
// their canonical form pins Src to 0 (whose injector they occupy).
func rootlessKind(kind string) bool {
	switch kind {
	case KindAllGather, KindReduceScatter, KindAllReduce, KindAllToAll:
		return true
	}
	return false
}

// dataKind reports whether this kind carries verified payload vectors.
func dataKind(kind string) bool {
	switch kind {
	case KindReduceScatter, KindAllReduce, KindAllToAll:
		return true
	}
	return false
}

// ElemBytes is the wire size per payload vector element
// (collective.ElemBytes). A data-carrying op's Bytes names its per-block
// payload; BlockElems floors it to whole elements, minimum one.
const ElemBytes = collective.ElemBytes

// BlockElems is the element count of one payload block of a
// data-carrying op.
func (op *Op) BlockElems() int {
	be := op.Bytes / ElemBytes
	if be < 1 {
		be = 1
	}
	return be
}

// PayloadSeed is the seed of an op's synthesized payload vectors: the op
// seed mixed with the spec seed, so one spec's ops draw decorrelated data
// while the whole trace stays a pure function of the spec.
func (s *Spec) PayloadSeed(op *Op) int64 {
	return s.Seed*1_000_003 + op.Seed
}

// Fault entry kinds and link-failure modes.
const (
	FaultLink = "link"
	FaultNode = "node"

	FaultModeDrop  = "drop"
	FaultModeStall = "stall"
)

// Spec is one traffic scenario. The zero values of Machine/Port select
// ncube2 / all-port; Seed drives the arrival generator and any random
// destination draws that do not carry their own seed.
type Spec struct {
	Dim     int    `json:"dim"`
	Machine string `json:"machine,omitempty"` // ncube2 (default) | ncube3
	Port    string `json:"port,omitempty"`    // all-port (default) | one-port
	// Lanes is the virtual-channel count per directed arc; 0 and 1 both
	// mean the single-lane legacy interconnect, and canonicalize to the
	// field being absent — so every pre-VC spec keeps its canonical bytes
	// (and cache key). VCPolicy ("round-robin" default, "lowest-occupancy",
	// "escape") is legal only with Lanes >= 2.
	Lanes    int    `json:"lanes,omitempty"`
	VCPolicy string `json:"vc_policy,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// Arrivals, when present, is expanded into explicit Ops by
	// Canonicalize and then cleared — the canonical form is always an
	// explicit trace.
	Arrivals *Arrivals `json:"arrivals,omitempty"`
	Ops      []Op      `json:"ops,omitempty"`
	// Faults is the scenario's timed fault schedule. Canonicalize expands
	// seeded random draws into explicit entries and sorts the list, so
	// the schedule — like the trace — is fully explicit in the canonical
	// form and participates in the cache key.
	Faults []FaultEvent `json:"faults,omitempty"`
}

// FaultEvent is one timed fault of a scenario. A link entry names a
// directed channel (From, Dim) — or a seeded random draw of Count distinct
// channels, expanded at canonicalization — failed from AtUS, permanently
// or until UntilUS, with drop or stall semantics. A node entry fail-stops
// Node at AtUS.
type FaultEvent struct {
	// Kind is "link" or "node".
	Kind string `json:"kind"`
	// Mode selects what the failed link does to an arriving header:
	// "drop" (default) or "stall". Link faults only.
	Mode string `json:"mode,omitempty"`
	// AtUS is the failure onset in simulated microseconds.
	AtUS int64 `json:"at_us,omitempty"`
	// UntilUS is a link fault's repair instant; 0 means permanent.
	UntilUS int64 `json:"until_us,omitempty"`
	// From and Dim name the failed directed channel of a link fault.
	From int `json:"from,omitempty"`
	Dim  int `json:"dim,omitempty"`
	// Node is the fail-stopped node of a node fault.
	Node int `json:"node,omitempty"`
	// Count and Seed, on a link fault, draw Count distinct channels
	// deterministically instead of naming one; canonicalization replaces
	// the draw with its explicit entries.
	Count int   `json:"count,omitempty"`
	Seed  int64 `json:"seed,omitempty"`
}

// Op is one collective operation of a scenario.
type Op struct {
	// ID names the op for `after` references; defaulted to "opNNN".
	ID string `json:"id,omitempty"`
	// Kind is multicast, broadcast, scatter, gather, allgather, or
	// group-phase.
	Kind string `json:"kind"`
	// Algorithm selects the multicast tree for the tree-based kinds
	// (multicast, broadcast, group-phase); default w-sort.
	Algorithm string `json:"algorithm,omitempty"`
	// Src is the initiating node (the root for scatter/gather).
	Src int `json:"src,omitempty"`
	// Dests | DestCount+Seed give a multicast's destination set, as in
	// the HTTP API: explicit, or a seeded deterministic random draw. For
	// the data-carrying kinds, Seed instead seeds the synthesized payload
	// vectors (mixed with the spec seed).
	Dests     []int `json:"dests,omitempty"`
	DestCount int   `json:"dest_count,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	// Bytes is the message (or per-block) payload; default 4096.
	Bytes int `json:"bytes,omitempty"`
	// AtUS is the earliest arrival instant in simulated microseconds.
	AtUS int64 `json:"at_us,omitempty"`
	// After lists op IDs that must complete before this op arrives;
	// references must point to earlier ops in the list (the trace order
	// is a topological order, so the dependency graph is acyclic by
	// construction).
	After []string `json:"after,omitempty"`
	// DelayUS is think time from the last dependency's completion to
	// this op's arrival; requires After.
	DelayUS int64 `json:"delay_us,omitempty"`
	// Groups+Roots define a group-phase op: one broadcast per group,
	// rooted at the matching Roots entry (a member node), all launched
	// together — the data-redistribution phase of group.Phase.
	Groups [][]int `json:"groups,omitempty"`
	Roots  []int   `json:"roots,omitempty"`
}

// Arrivals is a seeded arrival-process generator.
type Arrivals struct {
	// Kind is poisson (open loop: exponential interarrivals at
	// RatePerMS) or closed-loop (Clients clients, each re-issuing
	// ThinkUS after its previous op completes).
	Kind string `json:"kind"`
	// Count is the total number of generated ops.
	Count int `json:"count"`
	// RatePerMS is the aggregate Poisson arrival rate (ops per
	// simulated millisecond).
	RatePerMS float64 `json:"rate_per_ms,omitempty"`
	// Clients and ThinkUS configure the closed loop.
	Clients int   `json:"clients,omitempty"`
	ThinkUS int64 `json:"think_us,omitempty"`
	// Op is the template every generated op is stamped from.
	Op Template `json:"op"`
}

// Template is the per-arrival op shape. A nil Src draws the source
// uniformly (seeded) per arrival.
type Template struct {
	Kind      string `json:"kind"`
	Algorithm string `json:"algorithm,omitempty"`
	Bytes     int    `json:"bytes,omitempty"`
	DestCount int    `json:"dest_count,omitempty"`
	Src       *int   `json:"src,omitempty"`
}

// Limits is the admission policy for spec shapes.
type Limits struct {
	MaxDim    int // default 10
	MaxBytes  int // default 1 MiB
	MaxOps    int // default 512, counted after arrival expansion
	MaxFaults int // default 64, counted after draw expansion
	// MaxDataBytes caps one data-carrying op's synthesized footprint —
	// N nodes each holding an N-block vector of Bytes-sized blocks —
	// since payload ops allocate real memory, unlike timing-only ops.
	// Default 64 MiB.
	MaxDataBytes int64
}

func (l Limits) withDefaults() Limits {
	if l.MaxDim == 0 {
		l.MaxDim = 10
	}
	if l.MaxBytes == 0 {
		l.MaxBytes = 1 << 20
	}
	if l.MaxOps == 0 {
		l.MaxOps = 512
	}
	if l.MaxFaults == 0 {
		l.MaxFaults = 64
	}
	if l.MaxDataBytes == 0 {
		l.MaxDataBytes = 1 << 26
	}
	return l
}

// PermissiveLimits admits anything the simulator itself can represent.
// The engine re-canonicalizes under these so a spec admitted by a
// stricter boundary (the server's) is never re-rejected.
func PermissiveLimits() Limits {
	return Limits{MaxDim: 16, MaxBytes: 1 << 30, MaxOps: 1 << 20, MaxFaults: 1 << 20, MaxDataBytes: 1 << 34}
}

// Parse decodes a scenario spec strictly: unknown fields and trailing
// data are errors, and malformed input never panics.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("traffic: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("traffic: trailing data after spec")
	}
	return &s, nil
}

// CanonicalJSON renders the spec in its canonical wire form (indented,
// trailing newline) — the byte string that keys the server's result
// cache. Canonicalize first; the output of Parse∘CanonicalJSON is a
// fixed point.
func (s *Spec) CanonicalJSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("traffic: %v", err)
	}
	return append(b, '\n'), nil
}

// params maps the canonical machine/port strings to machine parameters.
func (s *Spec) params() (ncube.Params, error) {
	var pm core.PortModel
	switch s.Port {
	case "one-port":
		pm = core.OnePort
	case "all-port":
		pm = core.AllPort
	default:
		return ncube.Params{}, fmt.Errorf("traffic: unknown port model %q (want one-port or all-port)", s.Port)
	}
	var p ncube.Params
	switch s.Machine {
	case "ncube2":
		p = ncube.NCube2(pm)
	case "ncube3":
		p = ncube.NCube3(pm)
	default:
		return ncube.Params{}, fmt.Errorf("traffic: unknown machine %q (want ncube2 or ncube3)", s.Machine)
	}
	if s.Lanes > 1 {
		p.Lanes = s.Lanes
		k, err := vc.ParseKind(s.VCPolicy)
		if err != nil {
			return ncube.Params{}, fmt.Errorf("traffic: %v", err)
		}
		p.VCPolicy = k
	}
	return p, nil
}

// Canonicalize validates s against lim and rewrites it in place into the
// canonical form: defaults filled in, the arrival generator expanded to
// explicit ops, destination sets expanded/sorted/deduplicated, group
// members sorted. It is idempotent — canonicalizing a canonical spec is
// a no-op — and returns an error (never panics) on any malformed input.
func (s *Spec) Canonicalize(lim Limits) error {
	lim = lim.withDefaults()
	if s.Dim < 1 || s.Dim > lim.MaxDim {
		return fmt.Errorf("traffic: dim %d outside [1, %d]", s.Dim, lim.MaxDim)
	}
	if s.Machine == "" {
		s.Machine = "ncube2"
	}
	if s.Port == "" {
		s.Port = "all-port"
	}
	if s.Lanes < 0 || s.Lanes > vc.MaxLanes {
		return fmt.Errorf("traffic: lanes %d outside [0, %d]", s.Lanes, vc.MaxLanes)
	}
	if s.Lanes <= 1 {
		// Single-lane: canonicalize to the fields being absent, keeping
		// every legacy spec's canonical bytes (and cache key) unchanged.
		if s.VCPolicy != "" {
			return fmt.Errorf("traffic: vc_policy %q needs lanes >= 2", s.VCPolicy)
		}
		s.Lanes = 0
	} else if s.VCPolicy == "" {
		s.VCPolicy = vc.RoundRobin.String()
	}
	if _, err := s.params(); err != nil {
		return err
	}
	cube := topology.New(s.Dim, topology.HighToLow)
	if s.Arrivals != nil {
		if err := s.expandArrivals(cube, lim); err != nil {
			return err
		}
		s.Arrivals = nil
	}
	if len(s.Ops) == 0 {
		return fmt.Errorf("traffic: scenario has no ops")
	}
	if len(s.Ops) > lim.MaxOps {
		return fmt.Errorf("traffic: %d ops exceed the limit of %d", len(s.Ops), lim.MaxOps)
	}
	seen := make(map[string]int, len(s.Ops))
	var draw destDraw
	for i := range s.Ops {
		op := &s.Ops[i]
		if op.ID == "" {
			op.ID = fmt.Sprintf("op%03d", i)
		}
		if j, dup := seen[op.ID]; dup {
			return fmt.Errorf("traffic: ops %d and %d share id %q", j, i, op.ID)
		}
		seen[op.ID] = i
		if err := s.canonicalizeOp(cube, lim, op, i, seen, &draw); err != nil {
			return fmt.Errorf("traffic: op %q: %v", op.ID, err)
		}
	}
	return s.canonicalizeFaults(cube, lim)
}

// canonicalizeFaults validates the fault schedule and rewrites it into
// canonical form: seeded random link draws expanded into explicit entries,
// the drop default made explicit, and the whole list sorted and
// deduplicated. Idempotent, and errors (never panics) on malformed
// entries.
func (s *Spec) canonicalizeFaults(cube topology.Cube, lim Limits) error {
	if len(s.Faults) == 0 {
		s.Faults = nil
		return nil
	}
	out := make([]FaultEvent, 0, len(s.Faults))
	for i := range s.Faults {
		f := s.Faults[i]
		if f.AtUS < 0 {
			return fmt.Errorf("traffic: fault %d: negative at_us %d", i, f.AtUS)
		}
		switch f.Kind {
		case FaultLink:
			if f.Mode == "" {
				f.Mode = FaultModeDrop
			}
			if f.Mode != FaultModeDrop && f.Mode != FaultModeStall {
				return fmt.Errorf("traffic: fault %d: unknown mode %q (want drop or stall)", i, f.Mode)
			}
			if f.UntilUS < 0 || (f.UntilUS != 0 && f.UntilUS <= f.AtUS) {
				return fmt.Errorf("traffic: fault %d: until_us %d not after at_us %d (0 means permanent)", i, f.UntilUS, f.AtUS)
			}
			if f.Node != 0 {
				return fmt.Errorf("traffic: fault %d: node is a node-fault field", i)
			}
			if f.Count > 0 {
				if f.From != 0 || f.Dim != 0 {
					return fmt.Errorf("traffic: fault %d: give from/dim or count, not both", i)
				}
				for _, lf := range faults.RandomLinks(cube, f.Seed, f.Count) {
					out = append(out, FaultEvent{
						Kind: FaultLink, Mode: f.Mode,
						AtUS: f.AtUS, UntilUS: f.UntilUS,
						From: int(lf.Arc.From), Dim: lf.Arc.Dim,
					})
				}
				continue
			}
			if f.Count < 0 {
				return fmt.Errorf("traffic: fault %d: negative count %d", i, f.Count)
			}
			if f.Seed != 0 {
				return fmt.Errorf("traffic: fault %d: seed without count", i)
			}
			if f.From < 0 || f.From >= cube.Nodes() {
				return fmt.Errorf("traffic: fault %d: from %d outside the %d-node cube", i, f.From, cube.Nodes())
			}
			if f.Dim < 0 || f.Dim >= cube.Dim() {
				return fmt.Errorf("traffic: fault %d: dim %d outside the %d-cube", i, f.Dim, cube.Dim())
			}
			out = append(out, f)
		case FaultNode:
			if f.Mode != "" {
				return fmt.Errorf("traffic: fault %d: mode is a link-fault field", i)
			}
			if f.UntilUS != 0 {
				return fmt.Errorf("traffic: fault %d: until_us is a link-fault field (nodes fail-stop)", i)
			}
			if f.Count != 0 || f.Seed != 0 {
				return fmt.Errorf("traffic: fault %d: count/seed are link-fault fields", i)
			}
			if f.From != 0 || f.Dim != 0 {
				return fmt.Errorf("traffic: fault %d: from/dim are link-fault fields", i)
			}
			if f.Node < 0 || f.Node >= cube.Nodes() {
				return fmt.Errorf("traffic: fault %d: node %d outside the %d-node cube", i, f.Node, cube.Nodes())
			}
			out = append(out, f)
		case "":
			return fmt.Errorf("traffic: fault %d: missing kind", i)
		default:
			return fmt.Errorf("traffic: fault %d: unknown kind %q (want link or node)", i, f.Kind)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.AtUS != b.AtUS {
			return a.AtUS < b.AtUS
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Dim != b.Dim {
			return a.Dim < b.Dim
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.UntilUS != b.UntilUS {
			return a.UntilUS < b.UntilUS
		}
		return a.Mode < b.Mode
	})
	dedup := out[:0]
	for _, f := range out {
		if len(dedup) > 0 && f == dedup[len(dedup)-1] {
			continue
		}
		dedup = append(dedup, f)
	}
	if len(dedup) > lim.MaxFaults {
		return fmt.Errorf("traffic: %d fault entries exceed the limit of %d", len(dedup), lim.MaxFaults)
	}
	s.Faults = dedup
	return nil
}

// Schedule compiles the canonical fault schedule into the evaluator the
// engine installs on the shared network; nil means the spec is fault-free.
// Call after Canonicalize (seeded draws must already be expanded).
func (s *Spec) Schedule() *faults.Schedule {
	if len(s.Faults) == 0 {
		return nil
	}
	sched := faults.NewSchedule()
	for _, f := range s.Faults {
		at := event.Time(f.AtUS) * event.Microsecond
		switch f.Kind {
		case FaultLink:
			until := event.Time(0)
			if f.UntilUS > 0 {
				until = event.Time(f.UntilUS) * event.Microsecond
			}
			if until <= at {
				until = at // permanent (LinkFault: Until <= From)
			}
			sched.AddLink(topology.Arc{From: topology.NodeID(f.From), Dim: f.Dim},
				at, until, f.Mode == FaultModeStall)
		case FaultNode:
			sched.AddNode(topology.NodeID(f.Node), at)
		}
	}
	return sched
}

func (s *Spec) canonicalizeOp(cube topology.Cube, lim Limits, op *Op, idx int, seen map[string]int, draw *destDraw) error {
	if op.Bytes == 0 {
		op.Bytes = 4096
	}
	if op.Bytes < 1 || op.Bytes > lim.MaxBytes {
		return fmt.Errorf("bytes %d outside [1, %d]", op.Bytes, lim.MaxBytes)
	}
	if op.AtUS < 0 {
		return fmt.Errorf("negative at_us %d", op.AtUS)
	}
	if op.DelayUS < 0 {
		return fmt.Errorf("negative delay_us %d", op.DelayUS)
	}
	if op.DelayUS > 0 && len(op.After) == 0 {
		return fmt.Errorf("delay_us without after")
	}
	if len(op.After) > 0 {
		sort.Strings(op.After)
		out := op.After[:0]
		for _, dep := range op.After {
			if len(out) > 0 && dep == out[len(out)-1] {
				continue
			}
			j, ok := seen[dep]
			if !ok || j >= idx {
				return fmt.Errorf("after %q does not name an earlier op", dep)
			}
			out = append(out, dep)
		}
		op.After = out
	}

	needSrc := func() error {
		if op.Src < 0 || op.Src >= cube.Nodes() {
			return fmt.Errorf("src %d outside the %d-node cube", op.Src, cube.Nodes())
		}
		return nil
	}
	noDests := func() error {
		if len(op.Dests) > 0 || op.DestCount > 0 || op.Seed != 0 {
			return fmt.Errorf("%s takes no destination set", op.Kind)
		}
		return nil
	}
	noGroups := func() error {
		if len(op.Groups) > 0 || len(op.Roots) > 0 {
			return fmt.Errorf("%s takes no groups", op.Kind)
		}
		return nil
	}
	// The data-carrying kinds keep op.Seed (it seeds the payload), but
	// have no destination set to draw.
	noDestSet := func() error {
		if len(op.Dests) > 0 || op.DestCount > 0 {
			return fmt.Errorf("%s takes no destination set", op.Kind)
		}
		return nil
	}
	dataCap := func() error {
		be := int64(op.Bytes) / ElemBytes
		if be < 1 {
			be = 1
		}
		n := int64(cube.Nodes())
		if total := n * n * be * ElemBytes; total > lim.MaxDataBytes {
			return fmt.Errorf("payload footprint %d bytes (%d nodes x %d blocks x %d bytes) exceeds the limit of %d",
				total, n, n, be*ElemBytes, lim.MaxDataBytes)
		}
		return nil
	}
	treeAlg := func() error {
		if op.Algorithm == "" {
			op.Algorithm = "w-sort"
		}
		if _, err := core.ParseAlgorithm(op.Algorithm); err != nil {
			return err
		}
		return nil
	}
	noAlg := func() error {
		if op.Algorithm != "" {
			return fmt.Errorf("%s has a fixed schedule (drop algorithm)", op.Kind)
		}
		return nil
	}

	switch op.Kind {
	case KindMulticast, KindFTMulticast:
		if err := firstErr(treeAlg, needSrc, noGroups); err != nil {
			return err
		}
		return normalizeDests(cube, op, draw)
	case KindBroadcast:
		return firstErr(treeAlg, needSrc, noDests, noGroups)
	case KindScatter, KindGather:
		return firstErr(noAlg, needSrc, noDests, noGroups)
	case KindAllGather:
		op.Src = 0 // canonical: rootless
		return firstErr(noAlg, noDests, noGroups)
	case KindReduceScatter, KindAllToAll:
		op.Src = 0 // canonical: rootless
		return firstErr(noAlg, noDestSet, noGroups, dataCap)
	case KindAllReduce:
		op.Src = 0 // canonical: rootless
		if op.Algorithm == "" {
			op.Algorithm = "hd" // halving+doubling, the bandwidth-optimal default
		}
		if op.Algorithm != "hd" && op.Algorithm != "ring" {
			return fmt.Errorf("allreduce algorithm %q (want hd or ring)", op.Algorithm)
		}
		return firstErr(noDestSet, noGroups, dataCap)
	case KindGroupPhase:
		op.Src = 0
		if err := firstErr(treeAlg, noDests); err != nil {
			return err
		}
		return canonicalizeGroups(cube, op)
	case "":
		return fmt.Errorf("missing kind")
	}
	return fmt.Errorf("unknown kind %q", op.Kind)
}

func firstErr(checks ...func() error) error {
	for _, c := range checks {
		if err := c(); err != nil {
			return err
		}
	}
	return nil
}

// destDraw expands the seeded destination draws of one Canonicalize call
// with one generator, reseeded per op: it draws exactly what a fresh
// workload.NewGenerator at the op's seed would, without a new generator's
// random-source state per op.
type destDraw struct {
	gen *workload.Generator
	buf []topology.NodeID
}

// dests draws m destinations from cube excluding src at seed. The result
// is valid until the next draw.
func (d *destDraw) dests(cube topology.Cube, seed int64, src topology.NodeID, m int) []topology.NodeID {
	if d.gen == nil {
		d.gen = workload.NewGenerator(cube, seed)
	} else {
		d.gen.Reseed(cube, seed)
	}
	d.buf = d.gen.AppendDests(d.buf[:0], src, m)
	return d.buf
}

// normalizeDests canonicalizes the (Dests | DestCount+Seed) pair exactly
// as the HTTP API does: a seeded draw is expanded deterministically, then
// the set is sorted, deduplicated, and stripped of src.
func normalizeDests(cube topology.Cube, op *Op, draw *destDraw) error {
	n := cube.Nodes()
	if len(op.Dests) > 0 && op.DestCount > 0 {
		return fmt.Errorf("give dests or dest_count, not both")
	}
	dests := op.Dests
	if op.DestCount > 0 {
		if op.DestCount > n-1 {
			return fmt.Errorf("dest_count %d exceeds the %d-node cube's %d possible destinations", op.DestCount, n, n-1)
		}
		drawn := draw.dests(cube, op.Seed, topology.NodeID(op.Src), op.DestCount)
		dests = make([]int, len(drawn))
		for i, d := range drawn {
			dests[i] = int(d)
		}
	}
	if len(dests) == 0 {
		return fmt.Errorf("empty destination set (give dests or dest_count)")
	}
	sort.Ints(dests)
	out := dests[:0]
	for _, d := range dests {
		if d < 0 || d >= n {
			return fmt.Errorf("destination %d outside the %d-node cube", d, n)
		}
		if d == op.Src || (len(out) > 0 && d == out[len(out)-1]) {
			continue
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return fmt.Errorf("destination set contains only the source")
	}
	op.Dests, op.DestCount, op.Seed = out, 0, 0
	return nil
}

// canonicalizeGroups validates a group-phase op and sorts each group's
// member list (group identity is a set; the broadcast root is named by
// node, not rank, so sorting loses nothing).
func canonicalizeGroups(cube topology.Cube, op *Op) error {
	if len(op.Groups) == 0 {
		return fmt.Errorf("group-phase needs groups")
	}
	if len(op.Roots) != len(op.Groups) {
		return fmt.Errorf("%d roots for %d groups", len(op.Roots), len(op.Groups))
	}
	for gi, g := range op.Groups {
		if len(g) == 0 {
			return fmt.Errorf("group %d is empty", gi)
		}
		sort.Ints(g)
		for i, v := range g {
			if v < 0 || v >= cube.Nodes() {
				return fmt.Errorf("group %d member %d outside the %d-node cube", gi, v, cube.Nodes())
			}
			if i > 0 && v == g[i-1] {
				return fmt.Errorf("group %d repeats member %d", gi, v)
			}
		}
		root := op.Roots[gi]
		if !containsInt(g, root) {
			return fmt.Errorf("root %d is not a member of group %d", root, gi)
		}
	}
	return nil
}

func containsInt(sorted []int, v int) bool {
	i := sort.SearchInts(sorted, v)
	return i < len(sorted) && sorted[i] == v
}

// expandArrivals replaces the generator with an explicit op list appended
// to Ops, with IDs "arrNNN". Sources without a template pin are drawn
// from the spec seed; per-op destination draws derive their seeds from
// the spec seed and the arrival index, so the whole trace is a pure
// function of the spec.
func (s *Spec) expandArrivals(cube topology.Cube, lim Limits) error {
	a := s.Arrivals
	if a.Count < 1 || a.Count > lim.MaxOps {
		return fmt.Errorf("traffic: arrivals count %d outside [1, %d]", a.Count, lim.MaxOps)
	}
	switch a.Op.Kind {
	case KindMulticast, KindFTMulticast, KindBroadcast, KindScatter, KindGather, KindAllGather,
		KindReduceScatter, KindAllReduce, KindAllToAll:
	case KindGroupPhase:
		return fmt.Errorf("traffic: arrivals cannot template group-phase ops")
	default:
		return fmt.Errorf("traffic: arrivals template has unknown kind %q", a.Op.Kind)
	}
	if a.Op.Src != nil && (*a.Op.Src < 0 || *a.Op.Src >= cube.Nodes()) {
		return fmt.Errorf("traffic: arrivals src %d outside the %d-node cube", *a.Op.Src, cube.Nodes())
	}
	rng := lazyrand.New(s.Seed)
	stamp := func(i int) Op {
		op := Op{
			ID:        fmt.Sprintf("arr%03d", i),
			Kind:      a.Op.Kind,
			Algorithm: a.Op.Algorithm,
			Bytes:     a.Op.Bytes,
		}
		if a.Op.Src != nil {
			op.Src = *a.Op.Src
		} else if !rootlessKind(a.Op.Kind) {
			op.Src = rng.Intn(cube.Nodes())
		}
		if a.Op.Kind == KindMulticast || a.Op.Kind == KindFTMulticast {
			op.DestCount = a.Op.DestCount
			op.Seed = s.Seed*1_000_003 + int64(i)
		}
		if dataKind(a.Op.Kind) {
			// Per-arrival payload seed, so generated ops carry distinct
			// vectors (PayloadSeed mixes in the spec seed).
			op.Seed = int64(i) + 1
		}
		return op
	}
	switch a.Kind {
	case "poisson":
		if !(a.RatePerMS > 0) || math.IsInf(a.RatePerMS, 0) {
			return fmt.Errorf("traffic: poisson arrivals need a positive finite rate_per_ms")
		}
		if a.Clients != 0 || a.ThinkUS != 0 {
			return fmt.Errorf("traffic: clients/think_us are closed-loop fields")
		}
		var t int64 // microseconds
		for i := 0; i < a.Count; i++ {
			// Exponential interarrival, quantized to whole microseconds.
			t += int64(rng.ExpFloat64() / a.RatePerMS * 1000)
			op := stamp(i)
			op.AtUS = t
			s.Ops = append(s.Ops, op)
		}
	case "closed-loop":
		if a.Clients < 1 {
			return fmt.Errorf("traffic: closed-loop arrivals need clients >= 1")
		}
		if a.ThinkUS < 0 {
			return fmt.Errorf("traffic: negative think_us")
		}
		if a.RatePerMS != 0 {
			return fmt.Errorf("traffic: rate_per_ms is an open-loop field")
		}
		prev := make([]string, a.Clients) // last op ID per client
		for i := 0; i < a.Count; i++ {
			c := i % a.Clients
			op := stamp(i)
			if prev[c] != "" {
				op.After = []string{prev[c]}
				op.DelayUS = a.ThinkUS
			}
			prev[c] = op.ID
			s.Ops = append(s.Ops, op)
		}
	default:
		return fmt.Errorf("traffic: unknown arrivals kind %q (want poisson or closed-loop)", a.Kind)
	}
	return nil
}
