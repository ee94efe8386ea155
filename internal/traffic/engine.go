package traffic

import (
	"fmt"
	"sort"

	"hypercube/internal/collective"
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/faults"
	"hypercube/internal/group"
	"hypercube/internal/ncube"
	"hypercube/internal/stats"
	"hypercube/internal/topology"
)

// OpResult is one op's timeline, all in nanoseconds of simulated time.
// Arrive is the op's arrival instant (its at_us, or its dependency
// resolution plus think time); Start is when the initiating node's
// injector actually accepted it — ops from one source serialize, so
// Queue = Start - Arrive is the injection queueing delay. Service is the
// op's own execution time (equal to the isolated single-run makespan
// when nothing interferes) and Sojourn = Queue + Service is what a
// client of the op observes.
type OpResult struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	ArriveNS  int64  `json:"arrive_ns"`
	StartNS   int64  `json:"start_ns"`
	FinishNS  int64  `json:"finish_ns"`
	QueueNS   int64  `json:"queue_ns"`
	ServiceNS int64  `json:"service_ns"`
	SojournNS int64  `json:"sojourn_ns"`
	// BlockedNS is this op's own cumulative header blocking — nonzero
	// means it physically contended for channels.
	BlockedNS int64 `json:"blocked_ns"`
	// Messages is the number of point-to-point unicasts the op issued.
	Messages int `json:"messages"`
	// DataVerified reports that a data-carrying op's final per-node
	// payload vectors matched the analytic expectation element for
	// element. Present only for the data kinds (a run with a mismatch
	// errors instead), so results of the timing-only kinds are
	// bit-for-bit unchanged.
	DataVerified bool `json:"data_verified,omitempty"`
	// Delivery is the per-op delivery accounting of a faulted scenario:
	// present (for the destination-bearing kinds) exactly when the spec
	// carries a fault schedule, so fault-free results are bit-for-bit
	// unchanged.
	Delivery *OpDelivery `json:"delivery,omitempty"`
}

// OpDelivery accounts one op's destinations under faults. Delivered +
// Failed always equals Dests. For a fault-tolerant multicast, Retries and
// Repairs count the protocol's recovery work; plain ops never retry
// (their losses land in Failed).
type OpDelivery struct {
	Dests     int `json:"dests"`
	Delivered int `json:"delivered"`
	Failed    int `json:"failed"`
	Retries   int `json:"retries"`
	Repairs   int `json:"repairs"`
}

// NetStats summarizes the shared network over the whole scenario.
type NetStats struct {
	// DurationNS is the simulated time of the last event.
	DurationNS int64 `json:"duration_ns"`
	// Delivered counts completed unicasts; HeaderBlocks counts header
	// blocking events (a header queueing on a busy channel).
	Delivered    int64 `json:"delivered"`
	HeaderBlocks int64 `json:"header_blocks"`
	// BlockedNS is cumulative header blocking time; ChannelHoldNS is
	// cumulative channel occupancy.
	BlockedNS     int64 `json:"blocked_ns"`
	ChannelHoldNS int64 `json:"channel_hold_ns"`
	// ChannelUtilization is ChannelHoldNS over total channel-time
	// (arcs x duration); BlockedFraction is BlockedNS over the same
	// denominator — the blocked-cycle fraction.
	ChannelUtilization float64 `json:"channel_utilization"`
	BlockedFraction    float64 `json:"blocked_fraction"`
	// MaxInFlight is the peak number of simultaneously in-flight
	// unicasts; PeakQueue is the deepest channel arbitration queue.
	MaxInFlight int `json:"max_in_flight"`
	PeakQueue   int `json:"peak_queue"`
	// Lanes breaks the aggregates down per virtual channel; present only
	// for multi-lane scenarios, so single-lane results keep their exact
	// legacy bytes.
	Lanes []LaneNetStats `json:"lanes,omitempty"`
}

// LaneNetStats is one lane's share of the network aggregates.
type LaneNetStats struct {
	Lane      int   `json:"lane"`
	Acquires  int64 `json:"acquires"`
	HoldNS    int64 `json:"hold_ns"`
	Blocks    int64 `json:"blocks"`
	BlockedNS int64 `json:"blocked_ns"`
	// Utilization is HoldNS over total arc-time (arcs x duration) — the
	// fraction of physical channel-time this lane kept occupied.
	Utilization float64 `json:"utilization"`
}

// Result is one scenario execution. Ops are in trace order.
type Result struct {
	Ops        []OpResult `json:"ops"`
	MakespanNS int64      `json:"makespan_ns"`
	Net        NetStats   `json:"net"`
}

// opState is the engine's per-op bookkeeping.
type opState struct {
	op   *Op
	deps int // unresolved dependencies
	// dependents are indices of ops whose After names this op.
	dependents []int
	// alg is the tree algorithm of multicast, broadcast and ft-multicast.
	alg core.Algorithm
	// trees are group-phase's pre-built group trees; multicast and
	// broadcast build their one tree at start, in storage the session's
	// recycled op owns.
	trees []*core.Tree
	// destSets, in faulted scenarios, lists each tree's requested
	// destinations (one set for multicast/broadcast, one per group for
	// group-phase) for delivery accounting.
	destSets [][]topology.NodeID
	// injKey is the node whose injector the op occupies while running:
	// its source/root, or the first group root.
	injKey int

	arrived, started, finished  bool
	arriveNS, startNS, finishNS event.Time
	blocked                     event.Time
	messages, pendingTrees      int
	// dataOK records a data-carrying op's payload verification.
	dataOK bool
	// Faulted-scenario delivery accounting.
	delivered, failed, retries, repairs int
}

// engine compiles a canonical spec onto a shared ncube.Session and runs
// it to completion.
type engine struct {
	spec *Spec
	p    ncube.Params
	cube topology.Cube
	ses  *ncube.Session
	ops  []opState
	// injBusy/injFIFO implement one FIFO injector per initiating node:
	// an op occupies its initiator from start to completion, and later
	// arrivals at the same node wait their turn.
	injBusy map[int]bool
	injFIFO map[int][]int
	// sched is the spec's compiled fault schedule; nil for fault-free
	// scenarios, which take exactly the pre-fault code paths.
	sched *faults.Schedule
	// dataErr is the first payload-verification failure; the run reports
	// it as an error rather than returning silently wrong data.
	dataErr error
	// payloads recycles payload blocks, input vectors and message records
	// across the scenario's data-carrying ops.
	payloads collective.Pool
	// dests is treeDests' buffer.
	dests []topology.NodeID
}

// Run executes a scenario and returns its per-op and network results.
// The spec is canonicalized in place (under PermissiveLimits — callers
// enforcing a stricter boundary canonicalize first) so raw and canonical
// specs produce identical traces.
func Run(spec *Spec) (*Result, error) {
	return RunBudget(spec, 0, 0)
}

// RunBudget is Run under an explicit event-loop watchdog (see
// event.Queue.RunBudget); exceeding a budget returns the *event.Diagnostic.
func RunBudget(spec *Spec, maxSteps int, maxTime event.Time) (*Result, error) {
	if err := spec.Canonicalize(PermissiveLimits()); err != nil {
		return nil, err
	}
	p, err := spec.params()
	if err != nil {
		return nil, err
	}
	e := &engine{
		spec:    spec,
		p:       p,
		cube:    topology.New(spec.Dim, topology.HighToLow),
		ops:     make([]opState, len(spec.Ops)),
		injBusy: make(map[int]bool),
		injFIFO: make(map[int][]int),
		sched:   spec.Schedule(),
	}
	if err := e.compile(); err != nil {
		return nil, err
	}
	// No metrics registry: the network keeps the NetStats totals itself.
	e.ses = ncube.NewSession(p, e.cube, ncube.Instrumentation{})
	if e.sched != nil {
		e.ses.SetFaults(e.sched)
		e.ses.SetExtraDiagnoser(e.diagnose)
	}
	for i := range e.ops {
		if e.ops[i].deps == 0 {
			e.scheduleArrival(i, event.Time(e.ops[i].op.AtUS)*event.Microsecond)
		}
	}
	if err := e.ses.Run(maxSteps, maxTime); err != nil {
		// Leave the session out of the pool: a watchdog abort leaves
		// events behind that Release would scrub, but the cheap safe
		// choice is the same one ncube makes on panic — drop it.
		return nil, err
	}
	res, err := e.collect()
	e.ses.Release()
	return res, err
}

// compile resolves dependencies, parses algorithms and pre-builds the
// group-phase trees. Multicast and broadcast trees are built at start, so
// a queued op holds no tree while it waits.
func (e *engine) compile() error {
	index := make(map[string]int, len(e.ops))
	for i := range e.spec.Ops {
		op := &e.spec.Ops[i]
		st := &e.ops[i]
		st.op = op
		index[op.ID] = i
		st.deps = len(op.After)
		for _, dep := range op.After {
			j, ok := index[dep]
			if !ok {
				return fmt.Errorf("traffic: op %q after unknown op %q", op.ID, dep)
			}
			e.ops[j].dependents = append(e.ops[j].dependents, i)
		}
		st.injKey = op.Src
		switch op.Kind {
		case KindMulticast, KindBroadcast:
			alg, err := core.ParseAlgorithm(op.Algorithm)
			if err != nil {
				return fmt.Errorf("traffic: op %q: %v", op.ID, err)
			}
			st.alg = alg
			if e.sched != nil {
				st.destSets = [][]topology.NodeID{append([]topology.NodeID(nil), e.treeDests(op)...)}
			}
		case KindFTMulticast:
			// The distributed protocol computes its sends on the fly;
			// only the algorithm needs parsing here.
			alg, err := core.ParseAlgorithm(op.Algorithm)
			if err != nil {
				return fmt.Errorf("traffic: op %q: %v", op.ID, err)
			}
			st.alg = alg
		case KindGroupPhase:
			alg, err := core.ParseAlgorithm(op.Algorithm)
			if err != nil {
				return fmt.Errorf("traffic: op %q: %v", op.ID, err)
			}
			for gi, members := range op.Groups {
				comm, err := group.New(e.cube, toNodeIDs(members))
				if err != nil {
					return fmt.Errorf("traffic: op %q: %v", op.ID, err)
				}
				rank, ok := comm.Rank(topology.NodeID(op.Roots[gi]))
				if !ok {
					return fmt.Errorf("traffic: op %q: root %d not in group %d", op.ID, op.Roots[gi], gi)
				}
				st.trees = append(st.trees, comm.Bcast(alg, rank))
				if e.sched != nil {
					set := make([]topology.NodeID, 0, len(members)-1)
					for _, m := range members {
						if m != op.Roots[gi] {
							set = append(set, topology.NodeID(m))
						}
					}
					st.destSets = append(st.destSets, set)
				}
			}
			st.injKey = op.Roots[0]
		case KindScatter, KindGather, KindAllGather:
			// Fixed binomial/dissemination schedules; nothing to build.
		case KindReduceScatter, KindAllReduce, KindAllToAll:
			// Fixed exchange schedules; payload vectors are synthesized
			// at start so queued ops hold no memory while waiting.
		default:
			return fmt.Errorf("traffic: op %q: unknown kind %q", op.ID, op.Kind)
		}
	}
	return nil
}

func (e *engine) scheduleArrival(i int, at event.Time) {
	e.ses.At(at, func() { e.arrive(i) })
}

// arrive releases op i to its initiator's injector: it starts now if the
// injector is free, otherwise it queues FIFO behind the op holding it.
func (e *engine) arrive(i int) {
	st := &e.ops[i]
	st.arrived = true
	st.arriveNS = e.ses.Now()
	if e.injBusy[st.injKey] {
		e.injFIFO[st.injKey] = append(e.injFIFO[st.injKey], i)
		return
	}
	e.injBusy[st.injKey] = true
	e.start(i)
}

// start launches op i's schedule on the shared network at the current
// instant.
func (e *engine) start(i int) {
	st := &e.ops[i]
	st.started = true
	st.startNS = e.ses.Now()
	sub := collective.Substrate{
		Queue:  e.ses.Queue(),
		Net:    e.ses.Network(),
		Params: e.p,
		Pool:   &e.payloads,
		OnDone: func(r collective.Result) {
			st.messages += r.Messages
			st.blocked += r.TotalBlocked
			e.complete(i)
		},
	}
	switch st.op.Kind {
	case KindMulticast, KindBroadcast:
		st.pendingTrees = 1
		e.ses.InjectBuild(e.ses.Now(), st.alg, topology.NodeID(st.op.Src), e.treeDests(st.op), st.op.Bytes,
			func(r *ncube.Result) { e.treeDone(i, 0, r) })
	case KindGroupPhase:
		st.pendingTrees = len(st.trees)
		for ti, tr := range st.trees {
			ti := ti
			e.ses.InjectTree(e.ses.Now(), tr, st.op.Bytes, func(r *ncube.Result) { e.treeDone(i, ti, r) })
		}
	case KindFTMulticast:
		e.ses.InjectFaultTolerant(e.ses.Now(), st.alg, topology.NodeID(st.op.Src),
			toNodeIDs(st.op.Dests), st.op.Bytes, e.oracle(), func(r *ncube.Result) {
				st.messages += len(r.Recv)
				st.blocked += r.TotalBlocked
				st.retries += r.Retries
				st.repairs += r.Repairs
				for _, how := range r.Status {
					if how.Reached() {
						st.delivered++
					} else {
						st.failed++
					}
				}
				e.complete(i)
			})
	case KindScatter:
		collective.ScatterOn(sub, topology.NodeID(st.op.Src), st.op.Bytes)
	case KindGather:
		collective.GatherOn(sub, topology.NodeID(st.op.Src), st.op.Bytes)
	case KindAllGather:
		collective.AllGatherOn(sub, st.op.Bytes)
	case KindReduceScatter, KindAllReduce, KindAllToAll:
		e.startData(i, sub)
	}
}

// treeDone accounts tree ti of op i, whose result r is valid only during
// the call, and completes the op once all its trees are done.
func (e *engine) treeDone(i, ti int, r *ncube.Result) {
	st := &e.ops[i]
	st.messages += len(r.Recv)
	st.blocked += r.TotalBlocked
	if e.sched != nil {
		for _, d := range st.destSets[ti] {
			if _, ok := r.Recv[d]; ok {
				st.delivered++
			} else {
				st.failed++
			}
		}
	}
	st.pendingTrees--
	if st.pendingTrees == 0 {
		e.complete(i)
	}
}

// treeDests returns the destinations of a multicast or broadcast op in a
// buffer the next call overwrites.
func (e *engine) treeDests(op *Op) []topology.NodeID {
	d := e.dests[:0]
	if op.Kind == KindBroadcast {
		for v := 0; v < e.cube.Nodes(); v++ {
			if v != op.Src {
				d = append(d, topology.NodeID(v))
			}
		}
	} else {
		for _, v := range op.Dests {
			d = append(d, topology.NodeID(v))
		}
	}
	e.dests = d
	return d
}

// startData launches a data-carrying op: draw the seeded per-node input
// vectors into a block of the run's pool, compute the analytic
// expectation from them, hand them to the payload schedule on the shared
// substrate (which reduces them in place), and — at the instant the
// collective completes, before the op is marked done — verify the
// delivered data element by element against the expectation, then return
// the block to the pool. A mismatch fails the whole run: wrong data is a
// scheduling bug, not a statistic.
func (e *engine) startData(i int, sub collective.Substrate) {
	st := &e.ops[i]
	nodes := e.cube.Nodes()
	in, block := e.payloads.RandomData(e.spec.PayloadSeed(st.op), nodes, nodes*st.op.BlockElems())
	var want [][]float64
	var dr *collective.DataResult
	base := sub.OnDone
	sub.OnDone = func(r collective.Result) {
		if err := collective.VerifyData(dr.Data, want); err != nil {
			if e.dataErr == nil {
				e.dataErr = fmt.Errorf("traffic: op %q payload verification failed: %w", st.op.ID, err)
			}
		} else {
			st.dataOK = true
		}
		// Data is the input's storage, or views of it.
		e.payloads.Recycle(block)
		base(r)
	}
	switch st.op.Kind {
	case KindReduceScatter:
		want = collective.ExpectedReduceScatter(in)
		dr = collective.ReduceScatterOn(sub, in, 0)
	case KindAllReduce:
		want = collective.ExpectedAllReduce(in)
		if st.op.Algorithm == "ring" {
			dr = collective.AllReduceRingOn(sub, in, 0)
		} else {
			dr = collective.AllReduceHDOn(sub, in, 0)
		}
	case KindAllToAll:
		want = collective.ExpectedAllToAll(in)
		dr = collective.AllToAllOn(sub, in)
	}
}

// oracle returns the fail-stop oracle the fault-tolerant protocol should
// consult — the compiled schedule, or nil (no node ever fails) when the
// scenario is fault-free.
func (e *engine) oracle() ncube.NodeOracle {
	if e.sched == nil {
		return nil
	}
	return e.sched
}

// diagnose renders the faulted scenario's progress for the watchdog: the
// scheduled fault inventory, then every op that has not finished with its
// arrival/start state — naming exactly what a wedged run was waiting on.
func (e *engine) diagnose() string {
	s := "traffic: faulted arcs:"
	for _, a := range e.sched.FaultedArcs() {
		s += fmt.Sprintf(" %v", a)
	}
	if len(e.sched.FaultedArcs()) == 0 {
		s += " none"
	}
	for i := range e.ops {
		st := &e.ops[i]
		if st.finished {
			continue
		}
		s += fmt.Sprintf("\n  op %q (%s) incomplete: arrived=%v started=%v delivered=%d failed=%d",
			st.op.ID, st.op.Kind, st.arrived, st.started, st.delivered, st.failed)
	}
	return s
}

// complete records op i finishing now, hands its injector to the next
// queued op, and resolves dependencies.
func (e *engine) complete(i int) {
	st := &e.ops[i]
	st.finished = true
	st.finishNS = e.ses.Now()
	if fifo := e.injFIFO[st.injKey]; len(fifo) > 0 {
		next := fifo[0]
		e.injFIFO[st.injKey] = fifo[1:]
		e.start(next)
	} else {
		e.injBusy[st.injKey] = false
	}
	for _, j := range st.dependents {
		dep := &e.ops[j]
		dep.deps--
		if dep.deps == 0 {
			at := e.ses.Now() + event.Time(dep.op.DelayUS)*event.Microsecond
			if t := event.Time(dep.op.AtUS) * event.Microsecond; t > at {
				at = t
			}
			e.scheduleArrival(j, at)
		}
	}
}

// collect assembles the Result after the calendar drains.
func (e *engine) collect() (*Result, error) {
	if e.dataErr != nil {
		return nil, e.dataErr
	}
	res := &Result{Ops: make([]OpResult, len(e.ops))}
	for i := range e.ops {
		st := &e.ops[i]
		if !st.finished {
			if e.sched != nil {
				// A faulted run that drained incomplete is wedged (stall
				// faults) or starved; name the faulted arcs and per-op
				// progress, as the watchdog would.
				return nil, fmt.Errorf("traffic: op %q never completed (arrived=%v started=%v)\n%s",
					st.op.ID, st.arrived, st.started, e.diagnose())
			}
			return nil, fmt.Errorf("traffic: op %q never completed (arrived=%v started=%v)", st.op.ID, st.arrived, st.started)
		}
		or := OpResult{
			ID:        st.op.ID,
			Kind:      st.op.Kind,
			ArriveNS:  int64(st.arriveNS),
			StartNS:   int64(st.startNS),
			FinishNS:  int64(st.finishNS),
			QueueNS:   int64(st.startNS - st.arriveNS),
			ServiceNS: int64(st.finishNS - st.startNS),
			SojournNS: int64(st.finishNS - st.arriveNS),
			BlockedNS: int64(st.blocked),
			Messages:  st.messages,
			// Only ever true for the data kinds; a completed data op that
			// somehow skipped verification would be a bug, and collect
			// already failed the run on any mismatch.
			DataVerified: st.dataOK,
		}
		if e.sched != nil {
			switch st.op.Kind {
			case KindMulticast, KindBroadcast, KindGroupPhase, KindFTMulticast:
				or.Delivery = &OpDelivery{
					Dests:     st.delivered + st.failed,
					Delivered: st.delivered,
					Failed:    st.failed,
					Retries:   st.retries,
					Repairs:   st.repairs,
				}
			}
		}
		res.Ops[i] = or
		if or.FinishNS > res.MakespanNS {
			res.MakespanNS = or.FinishNS
		}
	}
	dur := int64(e.ses.Now())
	net := e.ses.Network()
	res.Net = NetStats{
		DurationNS:    dur,
		Delivered:     int64(net.Delivered()),
		HeaderBlocks:  net.HeaderBlocks(),
		BlockedNS:     int64(net.GrantedWait()),
		ChannelHoldNS: int64(net.ChannelHold()),
		MaxInFlight:   net.MaxInFlight(),
		PeakQueue:     net.MaxQueueLen(),
	}
	arcTime := float64(e.cube.Nodes()) * float64(e.cube.Dim()) * float64(dur)
	if arcTime > 0 {
		res.Net.ChannelUtilization = float64(res.Net.ChannelHoldNS) / arcTime
		res.Net.BlockedFraction = float64(res.Net.BlockedNS) / arcTime
	}
	if ls := net.LaneStats(); ls != nil {
		res.Net.Lanes = make([]LaneNetStats, len(ls))
		for l, st := range ls {
			out := LaneNetStats{
				Lane:      l,
				Acquires:  st.Acquires,
				HoldNS:    st.HoldNS,
				Blocks:    st.Blocks,
				BlockedNS: st.BlockedNS,
			}
			if arcTime > 0 {
				out.Utilization = float64(st.HoldNS) / arcTime
			}
			res.Net.Lanes[l] = out
		}
	}
	return res, nil
}

func toNodeIDs(xs []int) []topology.NodeID {
	out := make([]topology.NodeID, len(xs))
	for i, x := range xs {
		out[i] = topology.NodeID(x)
	}
	return out
}

// AverageSojournNS returns the mean per-op sojourn time — the y-axis of a
// saturation curve. A zero-op result returns 0.
func (r *Result) AverageSojournNS() float64 {
	mean, _ := r.SojournStatsNS()
	return mean
}

// PercentileSojournNS returns the q-quantile (0 <= q <= 1) of per-op
// sojourn times under the repo's one shared quantile definition
// (stats.PercentileSortedInt64 — linear interpolation between order
// statistics, so cmd/traffic and loadgen agree on "p95" for the same
// sample). A zero-op result returns 0.
func (r *Result) PercentileSojournNS(q float64) int64 {
	_, qs := r.SojournStatsNS(q)
	return qs[0]
}

// SojournStatsNS returns the mean sojourn time and the quantiles at each
// of qs, copying and sorting the sample exactly once — sweep code reads
// several statistics per point. A zero-op result yields all zeros.
func (r *Result) SojournStatsNS(qs ...float64) (mean float64, quantiles []int64) {
	quantiles = make([]int64, len(qs))
	if len(r.Ops) == 0 {
		for _, q := range qs {
			if q < 0 || q > 1 {
				panic(fmt.Sprintf("traffic: percentile %v outside [0,1]", q))
			}
		}
		return 0, quantiles
	}
	xs := make([]int64, len(r.Ops))
	var sum float64
	for i, op := range r.Ops {
		xs[i] = op.SojournNS
		sum += float64(op.SojournNS)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for i, q := range qs {
		quantiles[i] = stats.PercentileSortedInt64(xs, q)
	}
	return sum / float64(len(r.Ops)), quantiles
}
