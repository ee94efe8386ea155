// Package ncube models the nCUBE-2 multicomputer of the paper's
// measurements: software send/receive overheads layered over the wormhole
// interconnect, with one-port or all-port node interfaces. A multicast tree
// executes exactly as it would on the machine — each node, upon fully
// receiving the message, pays a software receive overhead, then issues its
// forwarding unicasts, paying a per-send setup cost on its CPU, with
// injection gated by the port model.
//
// The paper measured a real 64-node nCUBE-2; we substitute calibrated
// parameters (startup ~= 160us split between sender and receiver, channel
// bandwidth ~= 2.2 MB/s, ~2us per router hop). Absolute delays therefore
// differ from the published plots, but every comparative shape — the
// U-cube staircase, serialization anomalies, and the port-aware algorithms'
// advantage — depends only on the mechanics reproduced here.
package ncube

import (
	"fmt"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/metrics"
	"hypercube/internal/topology"
	"hypercube/internal/vc"
	"hypercube/internal/wormhole"
)

// Params is the machine configuration.
type Params struct {
	// TStartup is the sender-side software cost per unicast (protocol
	// processing and DMA setup), charged serially on the sending CPU.
	TStartup event.Time
	// TRecv is the receiver-side software cost between the tail flit's
	// arrival and the moment the node can begin forwarding.
	TRecv event.Time
	// THop is the per-hop router latency of a header flit.
	THop event.Time
	// TByte is the per-byte channel transmission time.
	TByte event.Time
	// Port chooses the node/router interface model.
	Port core.PortModel

	// Lanes is the number of virtual channels per directed network arc;
	// 0 and 1 both select the single-lane legacy interconnect
	// (byte-identical to the pre-VC simulator). See internal/vc.
	Lanes int
	// VCPolicy selects the lane-allocation policy; meaningful only when
	// Lanes > 1.
	VCPolicy vc.Kind

	// Reliability knobs for the fault-tolerant protocol
	// (RunFaultTolerantInstrumented). The fault-free entry points ignore
	// them.

	// AckTimeout is the base wait for an end-to-end acknowledgment
	// before a unicast is retransmitted; 0 selects a default derived
	// from the worst-case round trip of the configured machine.
	AckTimeout event.Time
	// AckBackoff multiplies the timeout on each successive retry
	// (bounded exponential backoff); 0 selects 2, values below 1 are
	// invalid.
	AckBackoff float64
	// MaxRetries is the per-unicast retransmission budget before the
	// sender declares the child unreachable and repairs the tree;
	// 0 selects 3.
	MaxRetries int

	// Watchdog budgets for the event loop of a fault-tolerant run
	// (event.Queue.RunBudget): 0 selects event.DefaultMaxSteps and no
	// time bound respectively.
	WatchdogSteps int
	WatchdogTime  event.Time

	// Workers is the number of goroutines a batch entry point fans its
	// independent runs across: RunParallelInstrumented (one session per
	// tree) and, above it, the workload sweeps. A single run, a Session
	// scenario and a fault-tolerant run are one shared network each and
	// ignore it. Results are byte-identical at every worker count; the
	// differential test wall pins this.
	Workers int
}

// NCube2 returns parameters calibrated to published nCUBE-2 figures:
// one-way unicast latency ~= 164us + 0.45us/byte.
func NCube2(port core.PortModel) Params {
	return Params{
		TStartup: 110 * event.Microsecond,
		TRecv:    54 * event.Microsecond,
		THop:     2 * event.Microsecond,
		TByte:    450 * event.Nanosecond,
		Port:     port,
	}
}

// NCube3 models the announced successor the paper cites (Duzett & Buck
// 1992): roughly an order of magnitude more link bandwidth and leaner
// software paths. The faster the links, the larger the share of total
// delay that the startup count (tree shape) determines — so the
// algorithmic differences the paper studies matter *more* on newer
// hardware.
func NCube3(port core.PortModel) Params {
	return Params{
		TStartup: 40 * event.Microsecond,
		TRecv:    20 * event.Microsecond,
		THop:     500 * event.Nanosecond,
		TByte:    25 * event.Nanosecond,
		Port:     port,
	}
}

// Err reports a malformed configuration; nil means well-formed.
func (p Params) Err() error {
	if p.TStartup < 0 || p.TRecv < 0 || p.THop < 0 || p.TByte < 0 {
		return fmt.Errorf("ncube: negative timing parameter (TStartup=%v TRecv=%v THop=%v TByte=%v)",
			p.TStartup, p.TRecv, p.THop, p.TByte)
	}
	if p.Port != core.OnePort && p.Port != core.AllPort {
		return fmt.Errorf("ncube: invalid port model %d", int(p.Port))
	}
	if err := (vc.Config{Lanes: p.Lanes, Policy: p.VCPolicy}).Err(); err != nil {
		return fmt.Errorf("ncube: %v", err)
	}
	if p.AckTimeout < 0 {
		return fmt.Errorf("ncube: negative ack timeout %v", p.AckTimeout)
	}
	if p.AckBackoff != 0 && p.AckBackoff < 1 {
		return fmt.Errorf("ncube: ack backoff %v below 1", p.AckBackoff)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("ncube: negative retry budget %d", p.MaxRetries)
	}
	if p.WatchdogSteps < 0 || p.WatchdogTime < 0 {
		return fmt.Errorf("ncube: negative watchdog budget (WatchdogSteps=%d WatchdogTime=%v)",
			p.WatchdogSteps, p.WatchdogTime)
	}
	if p.Workers < 0 {
		return fmt.Errorf("ncube: negative worker count %d", p.Workers)
	}
	return nil
}

// Validate panics on a malformed configuration (internal call sites; the
// public API boundary returns Err instead).
func (p Params) Validate() {
	if err := p.Err(); err != nil {
		panic(err)
	}
}

// NetConfig projects the machine parameters onto the interconnect model:
// timing plus the virtual-channel shape. Every network built for these
// params must go through this, so the lane knob cannot silently drop.
func (p Params) NetConfig() wormhole.Config {
	return wormhole.Config{THop: p.THop, TByte: p.TByte, Lanes: p.Lanes, Policy: p.VCPolicy}
}

// Result reports one multicast execution.
type Result struct {
	Algorithm core.Algorithm
	Bytes     int
	// Recv maps every node that received the message (destinations, and
	// relays for SF trees) to the simulated time its copy fully arrived.
	Recv map[topology.NodeID]event.Time
	// Makespan is the time the last receiver obtained the message.
	Makespan event.Time
	// TotalBlocked is cumulative header blocking across all unicasts;
	// zero if and only if the execution was physically contention-free.
	TotalBlocked event.Time

	// Status, set by the fault-tolerant protocol
	// (RunFaultTolerantInstrumented), maps every requested destination to
	// its delivery outcome. Nil for the fault-free entry points.
	Status map[topology.NodeID]DeliveryStatus
	// Retries counts retransmitted unicasts; Repairs counts multicast-
	// tree repairs (relay detours plus subtree recomputations). Zero for
	// the fault-free entry points.
	Retries int
	Repairs int
}

// DeliveryStatus is the per-destination outcome of a fault-tolerant
// multicast.
type DeliveryStatus int

const (
	// StatusDelivered: received on the original tree path, first try.
	StatusDelivered DeliveryStatus = iota
	// StatusRetried: received on the original path after at least one
	// retransmission.
	StatusRetried
	// StatusRerouted: received through tree repair — a relay detour or a
	// recomputed subtree — after the original path was given up.
	StatusRerouted
	// StatusDeadNode: not received because the destination itself
	// fail-stopped.
	StatusDeadNode
	// StatusUnreachable: alive but not received within the retry and
	// repair budgets (e.g. partitioned by stalled channels).
	StatusUnreachable
)

func (s DeliveryStatus) String() string {
	switch s {
	case StatusDelivered:
		return "delivered"
	case StatusRetried:
		return "retried"
	case StatusRerouted:
		return "rerouted"
	case StatusDeadNode:
		return "dead-node"
	case StatusUnreachable:
		return "unreachable"
	}
	return fmt.Sprintf("DeliveryStatus(%d)", int(s))
}

// Reached reports whether the destination got the message.
func (s DeliveryStatus) Reached() bool {
	return s == StatusDelivered || s == StatusRetried || s == StatusRerouted
}

// DelayOf returns the receipt delay of node v (time from multicast
// initiation to full arrival of v's copy).
func (r Result) DelayOf(v topology.NodeID) (event.Time, bool) {
	t, ok := r.Recv[v]
	return t, ok
}

// Stats summarizes the per-destination delays over the given destination
// set (ignoring relay receipts).
func (r Result) Stats(dests []topology.NodeID) (avg, max event.Time) {
	if len(dests) == 0 {
		return 0, 0
	}
	var sum event.Time
	for _, d := range dests {
		t, ok := r.Recv[d]
		if !ok {
			panic(fmt.Sprintf("ncube: destination %v never received", d))
		}
		sum += t
		if t > max {
			max = t
		}
	}
	return sum / event.Time(len(dests)), max
}

// Instrumentation bundles the optional observers of a simulation run: a
// channel-event tracer (see the trace package) and a metrics registry
// (event-queue, network, and protocol counters). The zero value runs
// unobserved at full speed.
type Instrumentation struct {
	Tracer  wormhole.Tracer
	Metrics *metrics.Registry
}

// finishTracer flushes intervals a tracer still holds open at simulation
// teardown — without this, runs that end with channels held (stalled
// faults, watchdog aborts) would undercount channel utilization. Tracers
// without a Finish hook are left untouched.
func finishTracer(t wormhole.Tracer, at event.Time) {
	if f, ok := t.(interface{ Finish(event.Time) }); ok {
		f.Finish(at)
	}
}

// instrument attaches ins to a freshly built queue/network pair.
func (ins Instrumentation) instrument(q *event.Queue, net *wormhole.Network) {
	if ins.Tracer != nil {
		net.SetTracer(ins.Tracer)
	}
	if ins.Metrics != nil {
		q.SetMetrics(ins.Metrics)
		net.SetMetrics(ins.Metrics)
	}
}

// Run executes the multicast tree on the simulated machine — one tree
// execution started at t=0 on a pooled Session — and returns the per-node
// receipt times. The message is bytes long.
func Run(p Params, tr *core.Tree, bytes int) Result {
	return RunInstrumented(p, tr, bytes, Instrumentation{})
}

// RunInstrumented is Run with full observability attached: tracer
// callbacks on every channel event, and metrics from the event kernel, the
// interconnect, and the multicast protocol. Instrumentation never alters
// the simulation — results are bit-identical with and without it.
func RunInstrumented(p Params, tr *core.Tree, bytes int, ins Instrumentation) Result {
	res, err := RunInstrumentedBudget(p, tr, bytes, ins, 0, 0)
	if err != nil {
		// With the default budgets only a simulator bug can trip the
		// watchdog on a fault-free run; keep the panicking contract.
		panic(err)
	}
	return res
}

// RunInstrumentedBudget is RunInstrumented under an explicit event-loop
// watchdog (event.Queue.RunBudget): at most maxSteps events (<= 0 selects
// event.DefaultMaxSteps) and no event beyond maxTime of simulated time
// (<= 0 means unbounded). Exceeding either budget returns the partial
// Result accumulated so far and a *event.Diagnostic carrying the network's
// held-channel snapshot — the entry point the serving subsystem uses to
// bound untrusted requests instead of trusting them to terminate.
func RunInstrumentedBudget(p Params, tr *core.Tree, bytes int, ins Instrumentation, maxSteps int, maxTime event.Time) (Result, error) {
	s := NewSession(p, tr.Cube, ins)
	res, err := s.runOne(tr, bytes, maxSteps, maxTime)
	out := *res
	s.Release()
	return out, err
}
