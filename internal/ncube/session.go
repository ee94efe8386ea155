package ncube

import (
	"fmt"
	"sync"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/topology"
	"hypercube/internal/wormhole"
)

// Session is the simulator's one multicast executor: a pooled event
// calendar and interconnect on which tree executions (treeOps) run. The
// standalone entry points start their trees on a session at t=0 — Run and
// RunInstrumented* one tree, RunManyInstrumented a batch sharing the
// network, RunParallelInstrumented one session per tree — and the traffic
// engine (internal/traffic) injects trees at arbitrary simulated times with
// InjectTree or InjectBuild, or schedules arbitrary callbacks with At, then
// drives the whole scenario with Run. RunDistributed and the fault-tolerant
// protocol borrow only its calendar and network.
//
// A Session is single-threaded, like the event kernel beneath it. Borrow
// one with NewSession, schedule work, call Run exactly once, read results,
// then Release it back to the pool (skip Release if Run panicked). A
// treeOp and its node table are recycled into later trees of the same
// session — an injected op with a done hook as soon as it goes quiet, so a
// long scenario holds state only for the ops in flight, the rest at
// Release. Such an op keeps its Recv map, and with InjectBuild its tree
// storage, for the next tree it runs. A sweep worker instead keeps one
// session of its own (NewOwnedSession) and runs tree after tree on it with
// RunTree.
type Session struct {
	q      event.Queue
	net    *wormhole.Network
	p      Params
	ins    Instrumentation
	diagFn func() string

	// faulted is set by SetFaults: injection paths switch to loss-tracked
	// sends (a per-send loss closure) only when a fault model is
	// installed, so fault-free scenarios keep the allocation-free hot
	// path bit-for-bit.
	faulted bool
	// extraDiag, when set, is appended to the network diagnoser's output
	// on a watchdog trip (the traffic engine contributes faulted arcs and
	// per-op progress).
	extraDiag func() string

	// ops are the trees whose results the caller reads after Run (started
	// ones, and injected ones without a done hook); Release scrubs them
	// onto free, where later trees pick them up.
	ops, free []*treeOp
	// owned marks a session from NewOwnedSession: never pooled, and its
	// recycled ops keep their Recv maps for the next run.
	owned bool
}

var sessionPool = sync.Pool{New: func() any { return new(Session) }}

// NewSession borrows a pooled session and rebinds it to one scenario's
// machine, cube, and instrumentation.
func NewSession(p Params, cube topology.Cube, ins Instrumentation) *Session {
	p.Validate()
	s := sessionPool.Get().(*Session)
	s.bind(p, cube, ins)
	return s
}

// NewOwnedSession makes a session outside the pool for one goroutine to
// keep: a sweep worker runs its instances one by one through RunTree, and
// the calendar, the network, the tree execution and its result's Recv map
// are reused by every run, whatever the garbage collector does in
// between. An owned session is never Released.
func NewOwnedSession(p Params, ins Instrumentation) *Session {
	p.Validate()
	return &Session{p: p, ins: ins, owned: true}
}

// RunTree executes tr alone from t=0 on an owned session, as Run does on
// a pooled one, and returns its result. The session reuses the result,
// its Recv map included: it is valid only until the next RunTree.
func (s *Session) RunTree(tr *core.Tree, bytes int) *Result {
	if !s.owned {
		panic("ncube: RunTree needs a session from NewOwnedSession")
	}
	s.recycleOps()
	s.bind(s.p, tr.Cube, s.ins)
	res, err := s.runOne(tr, bytes, 0, 0)
	if err != nil {
		// Default budgets on a fault-free tree: only a simulator bug
		// can trip the watchdog.
		panic(err)
	}
	return res
}

// runOne executes tr alone from the session's current instant under the
// given watchdog budgets.
func (s *Session) runOne(tr *core.Tree, bytes int, maxSteps int, maxTime event.Time) (*Result, error) {
	s.ins.Metrics.Counter("mcast_runs").Inc()
	res := s.start(tr, bytes)
	return res, s.Run(maxSteps, maxTime)
}

// bind resets the calendar and rebinds the network to one scenario's
// machine, cube and instrumentation.
func (s *Session) bind(p Params, cube topology.Cube, ins Instrumentation) {
	cfg := p.NetConfig()
	s.q.Reset()
	if s.net == nil {
		s.net = wormhole.New(&s.q, cube, cfg)
		s.diagFn = s.net.Diagnose
	} else {
		s.net.Reset(&s.q, cube, cfg)
	}
	s.p, s.ins = p, ins
	s.faulted, s.extraDiag = false, nil // net.Reset detached the fault model
	ins.instrument(&s.q, s.net)
}

// Queue exposes the shared event calendar.
func (s *Session) Queue() *event.Queue { return &s.q }

// Network exposes the shared interconnect.
func (s *Session) Network() *wormhole.Network { return s.net }

// Params returns the machine configuration bound at NewSession.
func (s *Session) Params() Params { return s.p }

// Now returns the current simulated time.
func (s *Session) Now() event.Time { return s.q.Now() }

// SetFaults installs a fault model on the shared network for this
// scenario (nil restores the fault-free network). Fault state never
// survives the session: NewSession resets the network's fault model, and
// Release detaches it again so a recycled session cannot leak faults into
// its next borrower.
func (s *Session) SetFaults(f wormhole.FaultModel) {
	s.net.SetFaults(f)
	s.faulted = f != nil
}

// SetExtraDiagnoser appends fn's output to the watchdog diagnostics of a
// wedged run, after the network's held-channel snapshot (nil removes it).
func (s *Session) SetExtraDiagnoser(fn func() string) { s.extraDiag = fn }

// Diagnose renders the session's stall state: the network's held-channel
// snapshot plus any extra diagnoser installed by the scenario driver.
func (s *Session) Diagnose() string {
	d := s.diagFn()
	if s.extraDiag != nil {
		d += "\n" + s.extraDiag()
	}
	return d
}

// At schedules fn on the shared calendar at absolute time t.
func (s *Session) At(t event.Time, fn func()) { s.q.At(t, fn) }

// armDiagnoser attaches the session's stall report to its calendar.
func (s *Session) armDiagnoser() {
	if s.extraDiag != nil {
		s.q.SetDiagnoser(s.Diagnose)
	} else {
		s.q.SetDiagnoser(s.diagFn)
	}
}

// Run drives the calendar to exhaustion under the event watchdog
// (see event.Queue.RunBudget; maxSteps <= 0 selects the default budget,
// maxTime <= 0 is unbounded). It attaches the network diagnoser so a
// wedged scenario reports its held channels, and flushes any tracer.
func (s *Session) Run(maxSteps int, maxTime event.Time) error {
	s.armDiagnoser()
	_, err := s.q.RunBudget(maxSteps, maxTime)
	finishTracer(s.ins.Tracer, s.q.Now())
	return err
}

// Release returns the session to the pool. Fault state is detached here
// (and again by NewSession's network reset) so a recycled session starts
// fault-free even if its previous scenario was faulted. The session's
// treeOps are scrubbed and kept for reuse, so every *Result InjectTree
// returned is invalid from here on; ops still in flight (a run cut short
// by its watchdog) are dropped with the calendar. Callers skip Release when the run
// panicked — a half-torn-down session must not be reused.
func (s *Session) Release() {
	if s.owned {
		panic("ncube: Release of an owned session")
	}
	s.q.Reset()
	s.ins = Instrumentation{}
	s.net.SetFaults(nil)
	s.faulted = false
	s.extraDiag = nil
	s.recycleOps()
	sessionPool.Put(s)
}

// recycleOps scrubs the ops whose results the caller read onto the free
// list.
func (s *Session) recycleOps() {
	for _, op := range s.ops {
		op.recycle()
	}
	clear(s.ops)
	s.ops = s.ops[:0]
}

// treeOp is one multicast tree executing inside a Session: the machine's
// node software, node by node. A node pays the receive overhead, sets up
// each of its sends serially on its CPU, and injects them as the port
// model allows. Node software states are per-op (a processor can take
// part in several concurrent collectives, one handler per message tag).
// The op is its own injection event: InjectTree schedules it with AtOp.
type treeOp struct {
	s        *Session
	src      topology.NodeID
	bytes    int
	start    event.Time
	expected int // deliveries outstanding
	pending  int // node software events on the calendar
	res      Result
	done     func(*Result)
	nodes    opTable

	// deliverFn is bound once per op, which recycling keeps, so no send
	// allocates a delivery callback.
	deliverFn func(wormhole.Delivery)
	// ws holds the tree InjectBuild built for the op; the node table
	// points into it until the op is recycled.
	ws *core.Workspace
}

// opNode is one node's software state inside one treeOp. It doubles as
// the node's pre-bound calendar event (event.Op): a node has at most one
// software event pending at any instant — its receive overhead
// completing, or the CPU setup of one send — so the node carries the
// dispatch stage and rides the calendar without per-event closures.
type opNode struct {
	op    *treeOp
	sends []core.Send
	next  int // next send to set up
	stage int8
}

const (
	nodeRecvDone  int8 = iota // TRecv paid; begin forwarding
	nodeSetupDone             // TStartup paid; inject sends[next-1]
)

// RunEvent dispatches the node's pending software event.
func (st *opNode) RunEvent() {
	op := st.op
	op.pending--
	if st.stage == nodeRecvDone {
		op.issueNext(st)
	} else {
		op.setupDone(st)
	}
	op.settle()
}

// newOp binds a recycled (or new) treeOp to tree tr.
func (s *Session) newOp(tr *core.Tree, bytes int, done func(*Result)) *treeOp {
	op := s.takeOp()
	op.bind(tr, bytes, done)
	return op
}

// takeOp returns a recycled treeOp, or a new one.
func (s *Session) takeOp() *treeOp {
	if n := len(s.free); n > 0 {
		op := s.free[n-1]
		s.free = s.free[:n-1]
		return op
	}
	op := &treeOp{s: s}
	op.deliverFn = op.deliver
	return op
}

// bind sets op up to execute tree tr.
func (op *treeOp) bind(tr *core.Tree, bytes int, done func(*Result)) {
	s := op.s
	expected := tr.NumUnicasts()
	op.src, op.bytes, op.start = tr.Source, bytes, 0
	op.expected, op.pending, op.done = expected, 0, done
	recv := op.res.Recv // kept, emptied, by recycle unless it went to a caller
	if recv == nil {
		recv = make(map[topology.NodeID]event.Time, expected)
	}
	op.res = Result{Algorithm: tr.Algorithm, Bytes: bytes, Recv: recv}
	op.nodes.init(op, tr.Cube.Nodes(), len(tr.Order))
	for i, v := range tr.Order {
		op.nodes.state(op, v).sends = tr.Sends[i]
	}
	if done == nil {
		s.ops = append(s.ops, op)
	}
}

// recycle scrubs the op onto its session's free list. A result read after
// Run took its Recv map to the caller. Where the result was valid only
// until the next run (an owned session) or until done returned (an op
// with a done hook), the op keeps the map, emptied, for its next tree.
func (op *treeOp) recycle() {
	op.nodes.release()
	recv := op.res.Recv
	keep := op.s.owned || op.done != nil
	op.res, op.done = Result{}, nil
	if keep {
		clear(recv)
		op.res.Recv = recv
	}
	op.s.free = append(op.s.free, op)
}

// settle recycles an injected op with a done hook once it is quiet: every
// delivery is in (or written off), done has fired, and none of its node
// software events is left on the calendar. The network then holds no
// message of the op either, so nothing can reach it before it is reused.
func (op *treeOp) settle() {
	if op.done != nil && op.expected == 0 && op.pending == 0 {
		op.recycle()
	}
}

// start begins executing tr at the current instant, without an injection
// event, so a standalone run's calendar holds exactly the multicast's own
// events. Result times are relative to the start (absolute at t=0).
func (s *Session) start(tr *core.Tree, bytes int) *Result {
	op := s.newOp(tr, bytes, nil)
	op.RunEvent()
	return &op.res
}

// InjectTree schedules tr to start executing at absolute simulated time at
// (>= the current calendar time). The returned Result is filled in as the
// scenario runs: Recv times and Makespan are RELATIVE to the injection
// instant, so an op that runs without interference reproduces Run's result
// for the same tree exactly. TotalBlocked accumulates only this op's own
// unicast blocking (unlike RunManyInstrumented's network-wide total). If
// done is non-nil it fires at the op's completion instant — the arrival of
// its last unicast — on the shared calendar.
//
// The session recycles the op, so the *Result is valid only until done
// returns, Recv map included: the op reuses the map for its next tree. With
// a nil done the Result is valid until Release; copy the Result value out
// to keep it, and its Recv map stays the caller's.
func (s *Session) InjectTree(at event.Time, tr *core.Tree, bytes int, done func(*Result)) *Result {
	op := s.newOp(tr, bytes, done)
	s.q.AtOp(at, op)
	return &op.res
}

// InjectBuild is InjectTree for the tree core.Build(cube, a, src, dests)
// over the session's cube, which it builds now in storage the op owns and
// reuses once recycled. dests is only read during the call. The Result
// equals InjectTree's for that tree, under the same validity rules.
func (s *Session) InjectBuild(at event.Time, a core.Algorithm, src topology.NodeID, dests []topology.NodeID, bytes int, done func(*Result)) *Result {
	op := s.takeOp()
	if op.ws == nil {
		op.ws = new(core.Workspace)
	}
	op.bind(op.ws.Build(s.net.Cube(), a, src, dests), bytes, done)
	s.q.AtOp(at, op)
	return &op.res
}

// RunEvent is the injection: the op's clock starts now.
func (op *treeOp) RunEvent() {
	op.start = op.s.q.Now()
	if op.expected == 0 {
		if op.done != nil {
			op.done(&op.res)
		}
		op.settle()
		return
	}
	op.issueNext(op.nodes.state(op, op.src))
}

// issueNext sets up node st's next pending unicast. Under the one-port
// model the following send is issued only after this one's tail has
// drained into the network (single DMA pair: deliver restarts the sender),
// while the all-port model overlaps transmissions and is limited only by
// the serial per-send CPU setup.
func (op *treeOp) issueNext(st *opNode) {
	if st.next >= len(st.sends) {
		return
	}
	st.next++
	st.stage = nodeSetupDone
	op.pending++
	op.s.q.AfterOp(op.s.p.TStartup, st)
}

// setupDone injects the unicast whose CPU setup just completed. Under the
// all-port model the sender moves straight on to its next send.
func (op *treeOp) setupDone(st *opNode) {
	snd := st.sends[st.next-1]
	if op.s.faulted {
		// Loss-tracked send: a destroyed message strands the whole
		// subtree behind its target, which must be written off or the
		// op (and the scenario behind it) would wait forever.
		op.s.net.SendTracked(snd.From, snd.To, op.bytes, op.deliverFn, func() {
			op.lose(snd.To)
			if op.s.p.Port == core.OnePort {
				// The port frees when the message dies, exactly as
				// on a delivery: the node's later sends still go out.
				op.issueNext(st)
			}
			op.settle()
		})
	} else {
		op.s.net.Send(snd.From, snd.To, op.bytes, op.deliverFn)
	}
	if op.s.p.Port == core.AllPort {
		op.issueNext(st)
	}
}

// lose writes off the subtree rooted at the target of a destroyed unicast:
// the node never receives, so it never forwards, and every delivery its
// subtree owed the op will never happen. Decrementing expected by the
// stranded count keeps the op's completion accounting exact under drop
// faults (stall faults wedge instead and are the watchdog's business).
func (op *treeOp) lose(to topology.NodeID) {
	op.strand(to)
	if op.expected == 0 && op.done != nil {
		op.done(&op.res)
	}
}

func (op *treeOp) strand(v topology.NodeID) {
	op.expected--
	for _, snd := range op.nodes.state(op, v).sends {
		op.strand(snd.To)
	}
}

// deliver records one completed unicast in op-relative time and starts the
// receiver's software overhead. The op's done hook fires when the last
// outstanding delivery lands — at the makespan instant; the final
// receiver's residual TRecv is not part of the multicast delay. Under the
// one-port model the sender's port is now free, so it sets up its next
// send.
func (op *treeOp) deliver(d wormhole.Delivery) {
	rel := d.Arrived - op.start
	if _, dup := op.res.Recv[d.To]; dup {
		panic(fmt.Sprintf("ncube: node %v received op payload twice", d.To))
	}
	op.res.Recv[d.To] = rel
	if rel > op.res.Makespan {
		op.res.Makespan = rel
	}
	op.res.TotalBlocked += d.Blocked
	st := op.nodes.state(op, d.To)
	st.stage = nodeRecvDone
	op.pending++
	op.s.q.AfterOp(op.s.p.TRecv, st)
	op.expected--
	if op.expected == 0 && op.done != nil {
		op.done(&op.res)
	}
	if op.s.p.Port == core.OnePort {
		op.issueNext(op.nodes.state(op, d.From))
	}
}
