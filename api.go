package hypercube

import (
	"fmt"

	"hypercube/internal/collective"
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/faults"
	"hypercube/internal/group"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/trace"
	"hypercube/internal/traffic"
	"hypercube/internal/vc"
	"hypercube/internal/workload"
	"hypercube/internal/wormhole"
)

// Re-exported fundamental types. See the internal package docs for full
// reference; the aliases make the whole system usable through this single
// import.
type (
	// NodeID is an n-bit hypercube node address.
	NodeID = topology.NodeID
	// Cube is an n-dimensional wormhole-routed hypercube.
	Cube = topology.Cube
	// Resolution is the E-cube bit-resolution order.
	Resolution = topology.Resolution
	// Subcube is the paper's Definition 2 subcube.
	Subcube = topology.Subcube
	// Arc is a directed channel: the link leaving From along dimension
	// Dim (fault plans address links by Arc).
	Arc = topology.Arc
	// Algorithm selects a multicast tree construction algorithm.
	Algorithm = core.Algorithm
	// PortModel selects the node/router interface (one-port or all-port).
	PortModel = core.PortModel
	// Tree is a multicast implementation: a tree of constituent unicasts,
	// indexed by slot. Order lists every reached node once, source first,
	// breadth first; Sends[i] holds the sends of Order[i] in issue order,
	// and the receiver of the k-th send in slot order is Order[k+1].
	Tree = core.Tree
	// StepSchedule is a stepwise execution of a multicast tree: its
	// unicasts ordered by (Step, From, To), with RecvStep giving the step
	// at which a node received the message.
	StepSchedule = core.Schedule
	// Contention is a violation of the paper's Definition 4.
	Contention = core.Contention
	// MachineParams configures the simulated machine (ncube.Params).
	MachineParams = ncube.Params
	// MachineResult is a simulated multicast execution (ncube.Result).
	MachineResult = ncube.Result
	// Time is simulated time in nanoseconds.
	Time = event.Time
	// Delivery describes one completed unicast on the simulated network.
	Delivery = wormhole.Delivery

	// FaultPlan is a seeded, declarative fault-injection schedule: link
	// failures (permanent or transient windows), fail-stop node crashes,
	// and random message drop/truncation rates.
	FaultPlan = faults.Plan
	// LinkFault fails one directed channel, permanently or for a window.
	LinkFault = faults.LinkFault
	// NodeFault fail-stops one node from a given time onward.
	NodeFault = faults.NodeFault
	// FaultMode chooses what a failed link does to traffic that requests
	// it: destroy it (FaultDrop) or wedge it in place (FaultStall).
	FaultMode = faults.Mode
	// DeliveryStatus is the per-destination outcome of a fault-tolerant
	// multicast (see MachineResult.Status).
	DeliveryStatus = ncube.DeliveryStatus
	// WatchdogDiagnostic is the error SimulateFaultTolerant returns when
	// an event-loop budget trips: which budget, and a snapshot of the
	// channels the wedged network holds.
	WatchdogDiagnostic = event.Diagnostic

	// VCPolicy selects the virtual-channel lane-allocation policy of a
	// multi-lane interconnect (MachineParams.Lanes >= 2).
	VCPolicy = vc.Kind
)

// Resolution orders.
const (
	// HighToLow resolves the highest-order address bit first (the
	// paper's convention).
	HighToLow = topology.HighToLow
	// LowToHigh resolves the lowest-order bit first (the nCUBE-2's
	// convention).
	LowToHigh = topology.LowToHigh
)

// Algorithms.
const (
	// SeparateAddressing unicasts to each destination individually.
	SeparateAddressing = core.SeparateAddressing
	// SFBinomial is the store-and-forward recursive-doubling baseline.
	SFBinomial = core.SFBinomial
	// UCube is the one-port-optimal baseline of McKinley et al.
	UCube = core.UCube
	// Maxport transmits on as many ports as the destination set allows.
	Maxport = core.Maxport
	// Combine balances port usage against subtree weight.
	Combine = core.Combine
	// WSort is weighted_sort followed by Maxport — the paper's best.
	WSort = core.WSort
)

// Port models.
const (
	// OnePort nodes send and receive one message at a time.
	OnePort = core.OnePort
	// AllPort nodes use all dimensions simultaneously.
	AllPort = core.AllPort
)

// Virtual-channel lane-allocation policies (MachineParams.VCPolicy).
const (
	// VCRoundRobin rotates a per-arc cursor over the lanes.
	VCRoundRobin = vc.RoundRobin
	// VCLowestOccupancy grants the historically least-used free lane.
	VCLowestOccupancy = vc.LowestOccupancy
	// VCEscape reserves lane 0 as an escape lane (torus/dateline prep).
	VCEscape = vc.Escape
	// MaxLanes bounds MachineParams.Lanes.
	MaxLanes = vc.MaxLanes
)

// Fault modes.
const (
	// FaultDrop destroys a message whose header requests a failed link,
	// releasing everything it held (fail-fast links).
	FaultDrop = faults.Drop
	// FaultStall wedges the message in place, channels held — the
	// deadlock-shaped failure the watchdog exists to diagnose.
	FaultStall = faults.Stall
)

// Per-destination delivery outcomes of SimulateFaultTolerant.
const (
	// StatusDelivered: first try, original tree path.
	StatusDelivered = ncube.StatusDelivered
	// StatusRetried: original path, after at least one retransmission.
	StatusRetried = ncube.StatusRetried
	// StatusRerouted: delivered through tree repair (relay detour or
	// recomputed subtree).
	StatusRerouted = ncube.StatusRerouted
	// StatusDeadNode: undeliverable — the destination fail-stopped.
	StatusDeadNode = ncube.StatusDeadNode
	// StatusUnreachable: alive but not reached within the retry and
	// repair budgets.
	StatusUnreachable = ncube.StatusUnreachable
)

// New constructs an n-dimensional hypercube with the given resolution
// order. It panics for n outside [1, 20].
func New(n int, res Resolution) Cube { return topology.New(n, res) }

// Multicast builds the multicast tree for the algorithm from src to dests.
// Duplicate destinations and src itself are ignored.
func Multicast(c Cube, a Algorithm, src NodeID, dests []NodeID) *Tree {
	return core.Build(c, a, src, dests)
}

// Schedule computes the stepwise execution of the tree under a port model.
func Schedule(t *Tree, pm PortModel) *StepSchedule { return core.NewSchedule(t, pm) }

// CheckContention verifies the paper's Definition 4 on a schedule,
// returning every violating unicast pair (nil means contention-free).
func CheckContention(s *StepSchedule) []Contention { return core.CheckContention(s) }

// NCube2Params returns machine parameters calibrated to the published
// nCUBE-2 figures (~164us software latency, ~0.45us/byte links).
func NCube2Params(pm PortModel) MachineParams { return ncube.NCube2(pm) }

// NCube3Params models the paper's cited successor machine: roughly 10x the
// link bandwidth with leaner software paths.
func NCube3Params(pm PortModel) MachineParams { return ncube.NCube3(pm) }

// TreeMetrics summarizes a tree's structural properties (fan-out, hops,
// port reuse).
type TreeMetrics = core.Metrics

// Metrics computes the tree's structural metrics; dests enables relay
// accounting (nil to skip).
func Metrics(t *Tree, dests []NodeID) TreeMetrics { return t.ComputeMetrics(dests) }

// StepLowerBound is the information-theoretic minimum number of multicast
// steps for m destinations in an n-cube under the port model.
func StepLowerBound(pm PortModel, n, m int) int { return core.StepLowerBound(pm, n, m) }

// SimulateMany executes several multicast trees concurrently on one shared
// interconnect, measuring cross-multicast interference.
func SimulateMany(p MachineParams, trees []*Tree, bytes int) []MachineResult {
	return ncube.RunManyInstrumented(p, trees, bytes, ncube.Instrumentation{})
}

// SimulateBatch executes independent multicast trees — each on its own
// private interconnect — fanned across p.Workers parallel event-kernel
// workers, returning results in tree order. Every result is byte-identical
// to Simulate on the same tree at any worker count.
func SimulateBatch(p MachineParams, trees []*Tree, bytes int) []MachineResult {
	return ncube.RunParallelInstrumented(p, trees, bytes, ncube.Instrumentation{})
}

// Comm is an MPI-style communicator: an ordered process group over the
// cube with rank-addressed collectives.
type Comm = group.Comm

// NewComm creates a communicator over the given members (rank order as
// given).
func NewComm(c Cube, members []NodeID) (*Comm, error) { return group.New(c, members) }

// World returns the communicator containing every node (rank = address).
func World(c Cube) *Comm { return group.World(c) }

// Phase runs one group broadcast per communicator concurrently on a single
// shared interconnect — a data-redistribution phase.
func Phase(p MachineParams, bytes int, a Algorithm, groups []*Comm, roots []int) []MachineResult {
	return group.Phase(p, bytes, a, groups, roots)
}

// Simulate executes the multicast tree on the simulated machine with a
// message of the given size and returns per-destination receipt times.
func Simulate(p MachineParams, t *Tree, bytes int) MachineResult { return ncube.Run(p, t, bytes) }

// CheckMachineParams reports whether the machine configuration is
// well-formed; nil means usable. The Simulate family panics on malformed
// parameters — call this first when the configuration is untrusted.
func CheckMachineParams(p MachineParams) error { return p.Err() }

// CheckFaultPlan reports whether the fault plan is well-formed and fits
// the cube; nil means usable.
func CheckFaultPlan(c Cube, plan FaultPlan) error { return plan.ErrOn(c) }

// RandomLinkFaults draws k distinct permanent link faults from the cube's
// directed channels, deterministically from seed — the bulk generator for
// fault sweeps.
func RandomLinkFaults(c Cube, seed int64, k int) []LinkFault {
	return faults.RandomLinks(c, seed, k)
}

// SimulateFaultTolerant executes the distributed multicast protocol from
// src to dests under the given fault plan, with end-to-end ack/retry and
// multicast-tree repair (the reliability knobs live in MachineParams).
// The result's Status map reports every destination's outcome. Malformed
// configuration comes back as an error; a tripped watchdog budget returns
// a *WatchdogDiagnostic alongside the partial result.
func SimulateFaultTolerant(p MachineParams, c Cube, a Algorithm, src NodeID, dests []NodeID, bytes int, plan FaultPlan) (MachineResult, error) {
	return ncube.RunFaultTolerantInstrumented(ncube.JitterParams{Params: p}, c, a, src, dests, bytes, plan, ncube.Instrumentation{})
}

// TraceRecorder accumulates channel occupancy intervals and blocking
// incidents during a simulation; render with Gantt.
type TraceRecorder = trace.Recorder

// SimulateTraced is Simulate with a channel-event recorder attached; use
// rec.Gantt(cube, width) to visualize the execution.
func SimulateTraced(p MachineParams, t *Tree, bytes int, rec *TraceRecorder) MachineResult {
	return ncube.RunInstrumented(p, t, bytes, ncube.Instrumentation{Tracer: rec})
}

// Broadcast builds a multicast tree addressing every other node of the
// cube — the m = N-1 end point of the paper's plots.
func Broadcast(c Cube, a Algorithm, src NodeID) *Tree {
	dests := make([]NodeID, 0, c.Nodes()-1)
	for v := 0; v < c.Nodes(); v++ {
		if NodeID(v) != src {
			dests = append(dests, NodeID(v))
		}
	}
	return Multicast(c, a, src, dests)
}

// RandomDests draws m distinct random destinations (excluding src) from
// the cube using a deterministic seed, matching the paper's randomized
// workloads.
func RandomDests(c Cube, seed int64, src NodeID, m int) []NodeID {
	return workload.NewGenerator(c, seed).Dests(src, m)
}

// CollectiveResult reports one collective operation's simulated execution.
type CollectiveResult = collective.Result

// Scatter distributes a distinct block from root to every node of the
// cube (personalized one-to-all) on the simulated machine.
func Scatter(p MachineParams, c Cube, root NodeID, blockBytes int) CollectiveResult {
	return collective.Scatter(p, c, root, blockBytes)
}

// Gather collects one block from every node at root.
func Gather(p MachineParams, c Cube, root NodeID, blockBytes int) CollectiveResult {
	return collective.Gather(p, c, root, blockBytes)
}

// Reduce combines a fixed-size partial result from every node at root,
// charging tCompute per combining step.
func Reduce(p MachineParams, c Cube, root NodeID, bytes int, tCompute Time) CollectiveResult {
	return collective.Reduce(p, c, root, bytes, tCompute)
}

// Barrier runs a dissemination barrier across the whole cube.
func Barrier(p MachineParams, c Cube) CollectiveResult {
	return collective.Barrier(p, c)
}

// AllGather performs the recursive-doubling all-gather of one block per
// node.
func AllGather(p MachineParams, c Cube, blockBytes int) CollectiveResult {
	return collective.AllGather(p, c, blockBytes)
}

// AllReduce combines a fixed-size vector across all nodes, leaving the
// result everywhere (butterfly schedule, tCompute per merge).
func AllReduce(p MachineParams, c Cube, bytes int, tCompute Time) CollectiveResult {
	return collective.AllReduce(p, c, bytes, tCompute)
}

// ReduceTree runs a multicast tree in reverse: a convergecast from the
// tree's members to its source — reduction over an arbitrary subset.
func ReduceTree(p MachineParams, t *Tree, bytes int, tCompute Time) CollectiveResult {
	return collective.ReduceTree(p, t, bytes, tCompute)
}

// CollectiveDataResult is a CollectiveResult plus the per-node payload
// vectors left behind by a data-carrying collective. Payloads ride the
// same event schedule as the timing-only collectives — they never alter
// it — and every data-carrying entry point verifies the delivered data
// against the analytic expectation before returning.
type CollectiveDataResult = collective.DataResult

// RandomCollectiveData synthesizes the seeded integer-valued per-node
// input vectors the data-carrying collectives consume; integer values
// keep float64 sums exact regardless of reduction order.
func RandomCollectiveData(seed int64, nodes, elems int) [][]float64 {
	return collective.RandomData(seed, nodes, elems)
}

// ReduceScatter sum-reduces the per-node input vectors and leaves each
// node its owned block (recursive halving). The error reports any
// divergence between delivered payloads and the analytic expectation.
func ReduceScatter(p MachineParams, c Cube, in [][]float64, tCompute Time) (CollectiveDataResult, error) {
	return collective.ReduceScatter(p, c, in, tCompute)
}

// AllReduceData sum-reduces the per-node input vectors, leaving the full
// result everywhere, via recursive halving + doubling ("hd") or the
// Gray-code ring pipeline ("ring"). Any other variant is an error.
func AllReduceData(p MachineParams, c Cube, in [][]float64, tCompute Time, variant string) (CollectiveDataResult, error) {
	switch variant {
	case "hd":
		return collective.AllReduceHD(p, c, in, tCompute)
	case "ring":
		return collective.AllReduceRing(p, c, in, tCompute)
	}
	return CollectiveDataResult{}, fmt.Errorf("unknown allreduce variant %q (want hd or ring)", variant)
}

// AllToAll performs the complete personalized exchange: node s's block t
// ends at node t's slot s (pairwise-XOR schedule).
func AllToAll(p MachineParams, c Cube, in [][]float64) (CollectiveDataResult, error) {
	return collective.AllToAll(p, c, in)
}

// TrafficSpec is a trace-driven traffic scenario: timed, optionally
// dependent collective operations from many sources sharing one simulated
// network, with seeded open-loop (Poisson) and closed-loop arrival
// generators. See internal/traffic for the JSON schema.
type TrafficSpec = traffic.Spec

// TrafficOp is one operation of a TrafficSpec.
type TrafficOp = traffic.Op

// TrafficResult reports a traffic scenario: per-op queueing, service, and
// sojourn times plus shared-network saturation statistics.
type TrafficResult = traffic.Result

// ParseTrafficSpec decodes a scenario spec strictly (unknown fields and
// trailing data are errors; malformed input never panics).
func ParseTrafficSpec(data []byte) (*TrafficSpec, error) { return traffic.Parse(data) }

// CanonicalTrafficJSON validates the spec and renders its canonical wire
// form — defaults filled, generators expanded, destination draws resolved.
// The canonical form is a fixed point: parsing and re-canonicalizing it
// reproduces the same bytes.
func CanonicalTrafficJSON(s *TrafficSpec) ([]byte, error) {
	if err := s.Canonicalize(traffic.Limits{}); err != nil {
		return nil, err
	}
	return s.CanonicalJSON()
}

// SimulateTraffic runs the scenario on a single shared simulated network,
// canonicalizing the spec in place first. Identical specs produce
// identical results.
func SimulateTraffic(s *TrafficSpec) (*TrafficResult, error) { return traffic.Run(s) }
