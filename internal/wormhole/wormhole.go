// Package wormhole is a discrete-event simulator of a wormhole-routed
// hypercube interconnect — our reimplementation of the paper's MultiSim
// substrate. It models each unicast as a header that acquires the channels
// of its deterministic E-cube path hop by hop, blocking in place (and
// holding every acquired channel) when a channel is busy, followed by a
// flit pipeline that drains at channel bandwidth once the full path is
// established.
//
// The model captures the two salient properties of wormhole routing the
// paper relies on: distance-insensitive latency in the absence of
// contention, and whole-path channel occupancy when messages collide.
package wormhole

import (
	"fmt"
	"sort"

	"hypercube/internal/event"
	"hypercube/internal/metrics"
	"hypercube/internal/topology"
	"hypercube/internal/vc"
)

// Config sets the interconnect timing and virtual-channel shape. Zero
// values are legal (they model an infinitely fast single-lane component).
type Config struct {
	// THop is the router latency for a header flit to traverse one
	// channel and be examined by the next router.
	THop event.Time
	// TByte is the transmission time per payload byte per channel (the
	// reciprocal of channel bandwidth).
	TByte event.Time
	// Lanes is the number of virtual channels per directed arc; 0 and 1
	// both select the single-lane legacy model (byte-identical to the
	// pre-VC simulator). Each lane drains at full channel bandwidth —
	// the message-level model has no flit multiplexing — so extra lanes
	// buy admission concurrency, not extra wire capacity.
	Lanes int
	// Policy selects the lane-allocation policy (vc.Kind); meaningful
	// only when Lanes > 1.
	Policy vc.Kind
}

// Err reports a nonsensical configuration; nil means well-formed.
func (c Config) Err() error {
	if c.THop < 0 || c.TByte < 0 {
		return fmt.Errorf("wormhole: negative timing parameter (THop=%v TByte=%v)", c.THop, c.TByte)
	}
	if err := (vc.Config{Lanes: c.Lanes, Policy: c.Policy}).Err(); err != nil {
		return fmt.Errorf("wormhole: %v", err)
	}
	return nil
}

// lanes normalizes Config.Lanes to the simulated lane count.
func (c Config) lanes() int {
	if c.Lanes <= 1 {
		return 1
	}
	return c.Lanes
}

// Validate panics on a nonsensical configuration (internal call sites; the
// public API boundary returns Err instead).
func (c Config) Validate() {
	if err := c.Err(); err != nil {
		panic(err)
	}
}

// FaultModel injects failures into the interconnect. faults.Injector
// implements it; nil means a fault-free network. All queries are made at
// the current simulated time in a deterministic order, so a seeded model
// replays exactly.
type FaultModel interface {
	// LinkDown reports whether the directed channel a is failed at time
	// at. A failed channel affects a message at header-acquisition time.
	LinkDown(a topology.Arc, at event.Time) bool
	// StallOnLink selects what a failed channel does to the arriving
	// header: false drops the message (releasing its held channels),
	// true wedges it in place holding everything it has acquired.
	StallOnLink() bool
	// NodeDown reports whether node v has fail-stopped by time at. A
	// dead node neither injects nor consumes messages; its router keeps
	// forwarding traffic.
	NodeDown(v topology.NodeID, at event.Time) bool
	// MessageFate decides per-message in-transit corruption: drop loses
	// the message silently; truncateTo in [0, bytes) delivers only a
	// prefix, which the receiver detects (Delivery.Truncated) and
	// discards. truncateTo < 0 means the full payload arrives.
	MessageFate(from, to topology.NodeID, bytes int, at event.Time) (drop bool, truncateTo int)
}

// ArcStallModel optionally refines FaultModel with per-arc failure
// semantics: a model implementing it selects drop-versus-stall for each
// failed channel crossing individually (timed fault schedules mix both in
// one scenario), instead of FaultModel.StallOnLink's global choice.
type ArcStallModel interface {
	// StallOnArc reports whether a header reaching failed channel a at
	// time at wedges in place (true) or is dropped (false).
	StallOnArc(a topology.Arc, at event.Time) bool
}

// Delivery reports a completed unicast to the sender's callback.
type Delivery struct {
	From, To topology.NodeID
	Bytes    int
	// Injected is when the header entered the network at the source.
	Injected event.Time
	// Arrived is when the tail flit reached the destination router.
	Arrived event.Time
	// Blocked is the total time the header spent waiting on busy
	// channels; zero for a contention-free unicast.
	Blocked event.Time
	// Hops is the E-cube path length.
	Hops int
	// Truncated marks a corrupt arrival: only a prefix of the payload
	// made it (fault injection). The receiver should discard the copy.
	Truncated bool
}

// Latency is the in-network time of the unicast.
func (d Delivery) Latency() event.Time { return d.Arrived - d.Injected }

// message states for the pre-bound event dispatch in RunEvent.
const (
	stageHop   int8 = iota // header is crossing channel path[idx]
	stageDrain             // path established; tail pipeline draining
)

type message struct {
	from, to topology.NodeID
	bytes    int
	path     []topology.Arc
	idx      int // next channel to acquire
	injected event.Time
	blocked  event.Time
	waitFrom event.Time // when the current wait began
	done     func(Delivery)
	lost     func() // optional loss notification (SendTracked)
	drop     bool   // fault injection: lost in transit
	truncate int    // fault injection: deliver only this prefix (< 0: full)
	// lanes[i] is the lane acquired at path[i]; populated (in step with
	// idx) only on multi-lane networks, so the single-lane hot path never
	// touches it.
	lanes []int8

	// Pre-bound event state: the message schedules itself on the calendar
	// (no per-hop closures), dispatching on stage when it fires.
	net   *Network
	stage int8
}

// RunEvent advances the message's pending event: a header hop crossing or
// the tail drain. This lets hop and drain events ride the calendar without
// allocating a closure per event.
func (m *message) RunEvent() {
	if m.stage == stageHop {
		m.net.hopCrossed(m)
	} else {
		m.net.tailDrained(m)
	}
}

type channel struct {
	busy    bool
	owner   *message   // holder while busy (diagnostics)
	waiters []*message // FIFO
	since   event.Time // when the current owner claimed the channel
}

// reset clears one channel in place, dropping waiter references but keeping
// the queue's backing array for reuse.
func (ch *channel) reset() {
	for i := range ch.waiters {
		ch.waiters[i] = nil
	}
	*ch = channel{waiters: ch.waiters[:0]}
}

// maxDenseChannels bounds the dense channel table: cubes whose directed
// channel count times lane count fits (dim <= 13 single-lane) index a flat
// slice; larger cubes — legal up to bits.MaxDim, where a dense table would
// be gigabytes — fall back to a lazily populated map. Every paper workload
// and the serving soak sit well inside the dense regime.
const maxDenseChannels = 1 << 17

// ForceVC, set by equivalence tests only, routes single-lane networks
// through the full multi-lane machinery (vc.Pick, per-arc allocation
// state, lane scratch on every message) instead of the legacy fast path.
// FuzzLaneEquivalence uses it to prove the two paths produce byte-identical
// results at lanes=1. Never set it concurrently with running simulations.
var ForceVC bool

// Tracer observes channel-level events for visualization and utilization
// analysis. All callbacks fire at the current simulated time.
type Tracer interface {
	// ChannelAcquired fires when a message's header claims arc.
	ChannelAcquired(arc topology.Arc, from, to topology.NodeID, at event.Time)
	// ChannelReleased fires when the owning message's tail frees arc
	// (possibly immediately followed by ChannelAcquired for a waiter).
	ChannelReleased(arc topology.Arc, at event.Time)
	// HeaderBlocked fires when a header must queue for a busy arc.
	HeaderBlocked(arc topology.Arc, from, to topology.NodeID, at event.Time)
}

// LaneStat aggregates one lane index across every arc of a multi-lane
// network: how often that lane was granted, its cumulative occupancy, and
// the header waits resolved onto it (a blocked header queues at the arc;
// its wait is attributed to the lane it is eventually granted).
type LaneStat struct {
	Acquires  int64
	HoldNS    int64
	Blocks    int64
	BlockedNS int64
}

// Network simulates one hypercube interconnect attached to an event queue.
type Network struct {
	cube topology.Cube
	q    *event.Queue
	cfg  Config
	dim  int

	// Lane shape: nlanes lanes per arc under policy. multi selects the
	// multi-lane code paths; it equals nlanes > 1 except under the
	// ForceVC test hook.
	nlanes int
	policy vc.Kind
	multi  bool

	// Channel state: dense (indexed (From*dim+Dim)*nlanes+lane) for cubes
	// within maxDenseChannels, else a sparse map of per-arc lane slices.
	// Exactly one is non-nil. The arc's arbitration FIFO lives in its
	// lane-0 entry's waiters — at one lane this IS the legacy per-channel
	// queue.
	dense  []channel
	sparse map[topology.Arc][]channel

	// Per-arc allocation scratch of the lane policies; nil on the legacy
	// single-lane path.
	alloc       []vc.ArcState
	sparseAlloc map[topology.Arc]*vc.ArcState

	// laneStats aggregates per-lane occupancy and blocking; allocated
	// only on the multi-lane paths.
	laneStats []LaneStat

	tracer Tracer
	faults FaultModel

	// Aggregate statistics.
	delivered    int
	totalBlocked event.Time
	// headerBlocks, grantedWait and channelHold tally, without a metrics
	// registry, what "net_header_blocks" and the sums of
	// "net_block_time_ns" and "net_channel_hold_ns" count: every parked
	// header, every wait that ended in a grant, and every channel hold,
	// whatever the message's fate.
	headerBlocks int64
	grantedWait  event.Time
	channelHold  event.Time
	maxQueueLen  int
	lost         int
	inflight     int
	maxInflight  int
	wedged       []*message

	// free recycles finished messages (and their path scratch) across
	// sends and, because pooled simulation envs keep their network,
	// across runs. A network is driven by one goroutine, so the list
	// needs no locking. Wedged messages are never recycled — they hold
	// channels forever by design.
	free []*message

	// Observability instruments; all nil (one branch per update site)
	// until SetMetrics installs a registry.
	mInjected *metrics.Counter
	mDeliv    *metrics.Counter
	mLost     *metrics.Counter
	mBlocks   *metrics.Counter
	mAcquires *metrics.Counter
	mHoldNs   *metrics.Histogram
	mBlockNs  *metrics.Histogram
	// Per-lane instruments, registered only for genuinely multi-lane
	// networks so single-lane metric output is unchanged.
	mLaneAcq    []*metrics.Counter
	mLaneHoldNs []*metrics.Counter
}

// SetMetrics wires the network into a metrics registry: message fates
// ("net_injected", "net_delivered", "net_lost"), header blocking incidents
// ("net_header_blocks") and per-wait blocked time ("net_block_time_ns"),
// and channel occupancy ("net_channel_acquires", "net_channel_hold_ns").
// Multi-lane networks additionally register per-lane grant counts and
// occupancy ("net_laneL_acquires", "net_laneL_hold_ns"); single-lane
// networks register nothing extra, so their metric output is unchanged.
// A nil registry disables instrumentation.
func (n *Network) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		n.mInjected, n.mDeliv, n.mLost, n.mBlocks, n.mAcquires = nil, nil, nil, nil, nil
		n.mHoldNs, n.mBlockNs = nil, nil
		n.mLaneAcq, n.mLaneHoldNs = nil, nil
		return
	}
	n.mInjected = reg.Counter("net_injected")
	n.mDeliv = reg.Counter("net_delivered")
	n.mLost = reg.Counter("net_lost")
	n.mBlocks = reg.Counter("net_header_blocks")
	n.mAcquires = reg.Counter("net_channel_acquires")
	n.mHoldNs = reg.Histogram("net_channel_hold_ns")
	n.mBlockNs = reg.Histogram("net_block_time_ns")
	if n.nlanes > 1 {
		n.mLaneAcq = make([]*metrics.Counter, n.nlanes)
		n.mLaneHoldNs = make([]*metrics.Counter, n.nlanes)
		for l := 0; l < n.nlanes; l++ {
			n.mLaneAcq[l] = reg.Counter(fmt.Sprintf("net_lane%d_acquires", l))
			n.mLaneHoldNs[l] = reg.Counter(fmt.Sprintf("net_lane%d_hold_ns", l))
		}
	}
}

// SetTracer installs a channel-event observer (nil disables tracing).
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

// SetFaults installs a fault model (nil restores the fault-free network).
func (n *Network) SetFaults(f FaultModel) { n.faults = f }

// New creates a network for cube attached to queue q.
func New(q *event.Queue, cube topology.Cube, cfg Config) *Network {
	cfg.Validate()
	n := &Network{cube: cube, q: q, cfg: cfg}
	n.initChannels()
	return n
}

// initChannels sizes the channel table for n.cube and the lane shape of
// n.cfg.
func (n *Network) initChannels() {
	n.dim = n.cube.Dim()
	n.nlanes = n.cfg.lanes()
	n.policy = n.cfg.Policy
	n.multi = n.nlanes > 1 || ForceVC
	if total := n.cube.Nodes() * n.dim * n.nlanes; total <= maxDenseChannels {
		n.dense = make([]channel, total)
		n.sparse = nil
		n.sparseAlloc = nil
		n.alloc = nil
		if n.multi {
			n.alloc = make([]vc.ArcState, n.cube.Nodes()*n.dim)
		}
	} else {
		n.dense = nil
		n.alloc = nil
		n.sparse = make(map[topology.Arc][]channel)
		n.sparseAlloc = nil
		if n.multi {
			n.sparseAlloc = make(map[topology.Arc]*vc.ArcState)
		}
	}
	n.laneStats = nil
	if n.multi {
		n.laneStats = make([]LaneStat, n.nlanes)
	}
}

// Reset returns the network to its freshly constructed state for cube and
// cfg — as if built by New(q, cube, cfg) — while retaining allocated
// capacity: a dense channel table of the same shape is kept (with its
// waiter-queue arrays), so pooled simulation runs amortize the table across
// runs. The tracer, fault model, and metrics are detached; reattach per
// run. The event queue is rebound but not reset — callers own its
// lifecycle.
func (n *Network) Reset(q *event.Queue, cube topology.Cube, cfg Config) {
	cfg.Validate()
	// A run that completed cleanly (nothing in flight) released every
	// channel on its way out, so the table needs no sweep; an aborted or
	// wedged run leaves owners and waiters behind and must be scrubbed.
	dirty := n.inflight != 0
	lanes := cfg.lanes()
	multi := lanes > 1 || ForceVC
	sameShape := n.dense != nil && cube.Nodes()*cube.Dim()*lanes == len(n.dense) &&
		lanes == n.nlanes && multi == n.multi
	n.q, n.cube, n.cfg = q, cube, cfg
	if !sameShape {
		n.initChannels()
	} else {
		n.dim = cube.Dim()
		n.policy = cfg.Policy
		if dirty {
			for i := range n.dense {
				n.dense[i].reset()
			}
		}
		// Policy scratch and lane aggregates must not leak across pooled
		// runs even when the channel table itself is clean.
		for i := range n.alloc {
			n.alloc[i] = vc.ArcState{}
		}
		for i := range n.laneStats {
			n.laneStats[i] = LaneStat{}
		}
	}
	n.tracer, n.faults = nil, nil
	n.delivered, n.lost, n.inflight, n.maxInflight = 0, 0, 0, 0
	n.totalBlocked, n.maxQueueLen = 0, 0
	n.headerBlocks, n.grantedWait, n.channelHold = 0, 0, 0
	n.wedged = nil
	n.SetMetrics(nil)
}

// Cube returns the simulated topology.
func (n *Network) Cube() topology.Cube { return n.cube }

// Queue returns the event queue driving this network.
func (n *Network) Queue() *event.Queue { return n.q }

// Delivered returns the number of completed unicasts.
func (n *Network) Delivered() int { return n.delivered }

// TotalBlocked returns the cumulative header blocking time across all
// delivered messages — the simulator's direct measure of channel
// contention.
func (n *Network) TotalBlocked() event.Time { return n.totalBlocked }

// HeaderBlocks returns the number of times a header queued on a busy
// arc, the count "net_header_blocks" reports.
func (n *Network) HeaderBlocks() int64 { return n.headerBlocks }

// GrantedWait returns the cumulative queueing time of every header that
// was granted the channel it waited for, the sum "net_block_time_ns"
// reports. Unlike TotalBlocked it keeps the waits of messages that were
// lost afterwards.
func (n *Network) GrantedWait() event.Time { return n.grantedWait }

// ChannelHold returns the cumulative occupancy of every released channel,
// the sum "net_channel_hold_ns" reports.
func (n *Network) ChannelHold() event.Time { return n.channelHold }

// MaxQueueLen returns the deepest channel arbitration queue observed — how
// many headers were ever simultaneously parked on one channel.
func (n *Network) MaxQueueLen() int { return n.maxQueueLen }

// Lost returns the number of messages the fault model destroyed (dead
// links, dead endpoints, in-transit drops). Truncated deliveries are not
// counted: they reach the receiver, which discards them.
func (n *Network) Lost() int { return n.lost }

// InFlight returns the number of injected messages that have neither
// completed nor been lost. Nonzero after the event queue drains means the
// network is wedged (stalled faults or headers queued behind them).
func (n *Network) InFlight() int { return n.inflight }

// MaxInFlight returns the peak number of simultaneously in-flight unicasts
// observed since construction or Reset — the network's concurrency
// high-water mark under multi-source traffic.
func (n *Network) MaxInFlight() int { return n.maxInflight }

// HeldChannel describes one busy lane for diagnostics: the arc and lane,
// the unicast holding it, and how many headers are queued at the arc.
type HeldChannel struct {
	Arc      topology.Arc
	From, To topology.NodeID
	// Lane is the virtual channel held; always 0 on single-lane networks.
	Lane int
	// Waiters is the arc's arbitration-queue depth (shared by its lanes).
	Waiters int
	// Wedged marks channels held by a message stalled on a failed link.
	Wedged bool
}

// forEachChannel visits every materialized lane with its arc and lane
// index, in no particular order. Diagnostics-only: the dense walk touches
// every slot.
func (n *Network) forEachChannel(fn func(a topology.Arc, lane int, ch *channel)) {
	if n.dense != nil {
		for i := range n.dense {
			arc := i / n.nlanes
			fn(topology.Arc{From: topology.NodeID(arc / n.dim), Dim: arc % n.dim}, i%n.nlanes, &n.dense[i])
		}
		return
	}
	for a, ls := range n.sparse {
		for l := range ls {
			fn(a, l, &ls[l])
		}
	}
}

// Held snapshots every busy lane, in deterministic arc-then-lane order.
func (n *Network) Held() []HeldChannel {
	wedgedSet := make(map[*message]bool, len(n.wedged))
	for _, m := range n.wedged {
		wedgedSet[m] = true
	}
	var out []HeldChannel
	n.forEachChannel(func(a topology.Arc, lane int, ch *channel) {
		if !ch.busy || ch.owner == nil {
			return
		}
		out = append(out, HeldChannel{
			Arc:     a,
			From:    ch.owner.from,
			To:      ch.owner.to,
			Lane:    lane,
			Waiters: len(n.channel(a).waiters),
			Wedged:  wedgedSet[ch.owner],
		})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Arc.From != out[j].Arc.From {
			return out[i].Arc.From < out[j].Arc.From
		}
		if out[i].Arc.Dim != out[j].Arc.Dim {
			return out[i].Arc.Dim < out[j].Arc.Dim
		}
		return out[i].Lane < out[j].Lane
	})
	return out
}

// Diagnose renders the network's stall state for watchdog diagnostics:
// in-flight count and every held channel with its owner and queue depth.
// Register it on the event queue (q.SetDiagnoser) so budget trips explain
// what is wedged.
func (n *Network) Diagnose() string {
	held := n.Held()
	s := fmt.Sprintf("wormhole: %d in flight, %d lost, %d channels held", n.inflight, n.lost, len(held))
	for _, h := range held {
		state := ""
		if h.Wedged {
			state = " [wedged on failed link]"
		}
		lane := ""
		if n.nlanes > 1 {
			lane = fmt.Sprintf(" lane %d", h.Lane)
		}
		s += fmt.Sprintf("\n  %v%s held by %v->%v, %d queued%s", h.Arc, lane, h.From, h.To, h.Waiters, state)
	}
	return s
}

// Send injects a unicast of the given size at the current simulated time;
// done (optional) is invoked when the tail flit arrives at the destination.
// Sending to oneself delivers after the pipeline drain time without
// touching the network.
func (n *Network) Send(from, to topology.NodeID, bytes int, done func(Delivery)) {
	n.SendTracked(from, to, bytes, done, nil)
}

// SendTracked is Send with a loss notification: lost (optional) fires at
// the instant the fault model destroys the message — a dead source, a
// dropped failed-link crossing, an in-transit drop, or a dead destination
// — so protocol layers accounting for outstanding deliveries on a shared
// calendar can settle instead of waiting forever. Exactly one of done and
// lost fires per message, except for stall-wedged messages, which fire
// neither (they hold their channels forever; the watchdog reports them).
func (n *Network) SendTracked(from, to topology.NodeID, bytes int, done func(Delivery), lost func()) {
	n.cube.MustContain(from)
	n.cube.MustContain(to)
	if bytes < 0 {
		panic("wormhole: negative message size")
	}
	if n.faults != nil && n.faults.NodeDown(from, n.q.Now()) {
		n.lost++ // a dead node injects nothing
		if n.mLost != nil {
			n.mLost.Inc()
		}
		if lost != nil {
			lost()
		}
		return
	}
	var m *message
	if k := len(n.free); k > 0 {
		m = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		m = new(message)
	}
	m.from, m.to, m.bytes = from, to, bytes
	m.path = n.cube.AppendPathArcs(m.path[:0], from, to)
	m.idx = 0
	m.lanes = m.lanes[:0]
	m.injected = n.q.Now()
	m.blocked, m.waitFrom = 0, 0
	m.done = done
	m.lost = lost
	m.drop, m.truncate = false, -1
	m.net = n
	if n.faults != nil {
		m.drop, m.truncate = n.faults.MessageFate(from, to, bytes, n.q.Now())
	}
	n.inflight++
	if n.inflight > n.maxInflight {
		n.maxInflight = n.inflight
	}
	if n.mInjected != nil {
		n.mInjected.Inc()
	}
	if len(m.path) == 0 {
		m.stage = stageDrain
		n.q.AfterOp(n.drain(bytes), m)
		return
	}
	n.tryAcquire(m)
}

func (n *Network) drain(bytes int) event.Time {
	return event.Time(bytes) * n.cfg.TByte
}

// channel returns the head (lane-0) entry of arc a — on a single-lane
// network, the channel itself.
func (n *Network) channel(a topology.Arc) *channel {
	if n.dense != nil {
		return &n.dense[(int(a.From)*n.dim+a.Dim)*n.nlanes]
	}
	return &n.arcLanes(a)[0]
}

// arcLanes returns the lane slice of arc a (length n.nlanes), materializing
// the sparse entry on first touch.
func (n *Network) arcLanes(a topology.Arc) []channel {
	if n.dense != nil {
		base := (int(a.From)*n.dim + a.Dim) * n.nlanes
		return n.dense[base : base+n.nlanes]
	}
	ls, ok := n.sparse[a]
	if !ok {
		ls = make([]channel, n.nlanes)
		n.sparse[a] = ls
	}
	return ls
}

// allocState returns the lane-policy scratch of arc a (multi-lane paths
// only).
func (n *Network) allocState(a topology.Arc) *vc.ArcState {
	if n.alloc != nil {
		return &n.alloc[int(a.From)*n.dim+a.Dim]
	}
	st, ok := n.sparseAlloc[a]
	if !ok {
		st = new(vc.ArcState)
		n.sparseAlloc[a] = st
	}
	return st
}

// LaneStats snapshots the per-lane aggregates of a multi-lane network,
// indexed by lane. It returns nil for single-lane networks (including
// ForceVC runs, so equivalence tests see identical outputs).
func (n *Network) LaneStats() []LaneStat {
	if n.nlanes <= 1 {
		return nil
	}
	out := make([]LaneStat, n.nlanes)
	copy(out, n.laneStats)
	return out
}

// recycle returns a finished message to the free list. Every structure
// that could alias it — channel owners, waiter queues, the calendar — has
// already dropped its reference; the path scratch rides along for reuse.
func (n *Network) recycle(m *message) {
	m.done = nil
	m.lost = nil
	n.free = append(n.free, m)
}

// tryAcquire attempts to claim the message's next channel at the current
// simulated time.
func (n *Network) tryAcquire(m *message) {
	arc := m.path[m.idx]
	if n.faults != nil && n.faults.LinkDown(arc, n.q.Now()) {
		stall := n.faults.StallOnLink()
		if asm, ok := n.faults.(ArcStallModel); ok {
			stall = asm.StallOnArc(arc, n.q.Now())
		}
		if stall {
			// The header wedges in place: every channel in
			// m.path[:m.idx] stays held forever, backpressuring the
			// network — the deadlock the watchdog exists to report.
			n.wedged = append(n.wedged, m)
			return
		}
		// Fail-fast router: the message vanishes and frees its tail.
		n.releasePrefix(m, m.idx)
		n.lost++
		n.inflight--
		if n.mLost != nil {
			n.mLost.Inc()
		}
		lost := m.lost
		n.recycle(m)
		if lost != nil {
			lost()
		}
		return
	}
	if !n.multi {
		ch := n.channel(arc)
		if ch.busy {
			n.park(m, ch, arc)
			return
		}
		n.claim(m, ch, 0)
		return
	}
	lanes := n.arcLanes(arc)
	var free uint8
	for l := 0; l < n.nlanes; l++ {
		if !lanes[l].busy {
			free |= 1 << l
		}
	}
	st := n.allocState(arc)
	pick := vc.Pick(n.policy, st, n.nlanes, free)
	if pick < 0 {
		// Every lane busy: queue FIFO at the arc (the lane-0 entry holds
		// the arc's arbitration queue).
		n.park(m, &lanes[0], arc)
		return
	}
	vc.Claimed(n.policy, st, n.nlanes, pick)
	n.claim(m, &lanes[pick], pick)
}

// park queues m's header on the arc's arbitration FIFO (head is the arc's
// lane-0 channel entry).
func (n *Network) park(m *message, head *channel, arc topology.Arc) {
	m.waitFrom = n.q.Now()
	head.waiters = append(head.waiters, m)
	if len(head.waiters) > n.maxQueueLen {
		n.maxQueueLen = len(head.waiters)
	}
	if n.tracer != nil {
		n.tracer.HeaderBlocked(arc, m.from, m.to, n.q.Now())
	}
	n.headerBlocks++
	if n.mBlocks != nil {
		n.mBlocks.Inc()
	}
}

// claim marks lane `lane` of the message's next arc owned by m and advances
// the header one hop. Multi-lane callers must have run vc.Claimed first.
func (n *Network) claim(m *message, ch *channel, lane int) {
	ch.busy = true
	ch.owner = m
	ch.since = n.q.Now()
	if n.multi {
		m.lanes = append(m.lanes, int8(lane))
		n.laneStats[lane].Acquires++
		if n.mLaneAcq != nil {
			n.mLaneAcq[lane].Inc()
		}
	}
	if n.tracer != nil {
		n.tracer.ChannelAcquired(m.path[m.idx], m.from, m.to, n.q.Now())
	}
	if n.mAcquires != nil {
		n.mAcquires.Inc()
	}
	n.advance(m)
}

// advance moves the header across the channel it now owns, scheduling the
// message itself as the crossing event.
func (n *Network) advance(m *message) {
	m.stage = stageHop
	n.q.AfterOp(n.cfg.THop, m)
}

// hopCrossed fires when the header finishes crossing channel path[idx].
// When the final channel is crossed the pipeline drains, then every held
// channel releases as the tail passes.
func (n *Network) hopCrossed(m *message) {
	m.idx++
	if m.idx == len(m.path) {
		m.stage = stageDrain
		n.q.AfterOp(n.drain(m.bytes), m)
		return
	}
	n.tryAcquire(m)
}

// tailDrained fires when the last payload byte has left the source: the
// tail flit sweeps the path, releasing every channel, and the unicast
// completes.
func (n *Network) tailDrained(m *message) {
	n.releaseAll(m)
	n.complete(m)
}

func (n *Network) releaseAll(m *message) { n.releasePrefix(m, len(m.path)) }

// releasePrefix frees the first upto channels of m's path — all of them
// when the tail drains, or just the acquired prefix when the fault model
// destroys the message mid-path. A freed lane with headers queued at its
// arc is handed directly to the queue head, which inherits the lane.
func (n *Network) releasePrefix(m *message, upto int) {
	for i, a := range m.path[:upto] {
		lane := 0
		var ch, head *channel
		if !n.multi {
			ch = n.channel(a)
			head = ch
		} else {
			ls := n.arcLanes(a)
			lane = int(m.lanes[i])
			ch = &ls[lane]
			head = &ls[0]
		}
		if n.tracer != nil {
			n.tracer.ChannelReleased(a, n.q.Now())
		}
		hold := n.q.Now() - ch.since
		n.channelHold += hold
		if n.mHoldNs != nil {
			n.mHoldNs.Observe(int64(hold))
		}
		if n.multi {
			n.laneStats[lane].HoldNS += int64(hold)
			if n.mLaneHoldNs != nil {
				n.mLaneHoldNs[lane].Add(int64(hold))
			}
		}
		if len(head.waiters) == 0 {
			ch.busy = false
			ch.owner = nil
			continue
		}
		next := head.waiters[0]
		copy(head.waiters, head.waiters[1:])
		head.waiters[len(head.waiters)-1] = nil
		head.waiters = head.waiters[:len(head.waiters)-1]
		wait := n.q.Now() - next.waitFrom
		next.blocked += wait
		n.grantedWait += wait
		if n.mBlockNs != nil {
			n.mBlockNs.Observe(int64(wait))
		}
		// Lane stays busy; ownership transfers to the waiter, and the
		// waiter's blocked time is attributed to the lane it was granted.
		ch.owner = next
		ch.since = n.q.Now()
		if n.multi {
			vc.Claimed(n.policy, n.allocState(a), n.nlanes, lane)
			next.lanes = append(next.lanes, int8(lane))
			ls := &n.laneStats[lane]
			ls.Acquires++
			ls.Blocks++
			ls.BlockedNS += int64(wait)
			if n.mLaneAcq != nil {
				n.mLaneAcq[lane].Inc()
			}
		}
		if n.tracer != nil {
			n.tracer.ChannelAcquired(a, next.from, next.to, n.q.Now())
		}
		if n.mAcquires != nil {
			n.mAcquires.Inc()
		}
		n.advance(next)
	}
}

func (n *Network) complete(m *message) {
	n.inflight--
	if n.faults != nil && (m.drop || n.faults.NodeDown(m.to, n.q.Now())) {
		n.lost++ // lost in transit, or nobody alive to consume it
		if n.mLost != nil {
			n.mLost.Inc()
		}
		lost := m.lost
		n.recycle(m)
		if lost != nil {
			lost()
		}
		return
	}
	n.delivered++
	n.totalBlocked += m.blocked
	if n.mDeliv != nil {
		n.mDeliv.Inc()
	}
	if m.done != nil {
		bytes, trunc := m.bytes, false
		if m.truncate >= 0 && m.truncate < m.bytes {
			bytes, trunc = m.truncate, true
		}
		m.done(Delivery{
			From:      m.from,
			To:        m.to,
			Bytes:     bytes,
			Injected:  m.injected,
			Arrived:   n.q.Now(),
			Blocked:   m.blocked,
			Hops:      len(m.path),
			Truncated: trunc,
		})
	}
	n.recycle(m)
}

// Idle reports whether every channel is free — true between operations and
// after Run completes; useful as a leak check in tests.
func (n *Network) Idle() bool {
	idle := true
	n.forEachChannel(func(_ topology.Arc, _ int, ch *channel) {
		if ch.busy || len(ch.waiters) > 0 {
			idle = false
		}
	})
	return idle
}

func (n *Network) String() string {
	return fmt.Sprintf("wormhole %d-cube (%s), %d delivered, %s blocked",
		n.cube.Dim(), n.cube.Resolution(), n.delivered, n.totalBlocked.Micros())
}
