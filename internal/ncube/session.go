package ncube

import (
	"fmt"
	"sync"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/topology"
	"hypercube/internal/wormhole"
)

// Session is a pooled shared-calendar run environment for executing MANY
// collective operations on ONE simulated network, each injected at its own
// simulated time. Where Run owns the calendar for a single tree and RunMany
// launches a fixed batch at t=0, a Session exposes the calendar itself:
// callers schedule injections (InjectTree, or arbitrary callbacks via At)
// and then drive the whole scenario with Run. This is the substrate of the
// traffic engine (internal/traffic).
//
// A Session is single-threaded, like the event kernel beneath it. Borrow
// one with NewSession, schedule work, call Run exactly once, read results,
// then Release it back to the pool (skip Release if Run panicked).
type Session struct {
	q      event.Queue
	net    *wormhole.Network
	p      Params
	ins    Instrumentation
	diagFn func() string

	// faulted is set by SetFaults: injection paths switch to loss-tracked
	// sends (per-send closures) only when a fault model is installed, so
	// fault-free scenarios keep the allocation-free hot path bit-for-bit.
	faulted bool
	// extraDiag, when set, is appended to the network diagnoser's output
	// on a watchdog trip (the traffic engine contributes faulted arcs and
	// per-op progress).
	extraDiag func() string
}

var sessionPool = sync.Pool{New: func() any { return new(Session) }}

// NewSession borrows a pooled session and rebinds it to one scenario's
// machine, cube, and instrumentation.
func NewSession(p Params, cube topology.Cube, ins Instrumentation) *Session {
	p.Validate()
	s := sessionPool.Get().(*Session)
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
	return s
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

// Run drives the calendar to exhaustion under the event watchdog
// (see event.Queue.RunBudget; maxSteps <= 0 selects the default budget,
// maxTime <= 0 is unbounded). It attaches the network diagnoser so a
// wedged scenario reports its held channels, and flushes any tracer.
func (s *Session) Run(maxSteps int, maxTime event.Time) error {
	if s.extraDiag != nil {
		s.q.SetDiagnoser(s.Diagnose)
	} else {
		s.q.SetDiagnoser(s.diagFn)
	}
	_, err := runQueue(&s.q, s.p.Workers, maxSteps, maxTime)
	finishTracer(s.ins.Tracer, s.q.Now())
	return err
}

// Release returns the session to the pool. Fault state is detached here
// (and again by NewSession's network reset) so a recycled session starts
// fault-free even if its previous scenario was faulted. Callers skip
// Release when the run panicked — a half-torn-down session must not be
// reused.
func (s *Session) Release() {
	s.q.Reset()
	s.ins = Instrumentation{}
	s.net.SetFaults(nil)
	s.faulted = false
	s.extraDiag = nil
	sessionPool.Put(s)
}

// treeOp is one multicast tree executing inside a Session. It is its own
// injection event: scheduled with AtOp, its RunEvent starts the root's
// first send at the op's injection instant. Node software states are
// per-op (a processor can participate in several concurrent collectives,
// one handler per message tag — same model as RunMany).
type treeOp struct {
	s        *Session
	src      topology.NodeID
	bytes    int
	start    event.Time
	expected int // deliveries outstanding
	lost     int // deliveries the fault model destroyed (stranded subtrees)
	res      Result
	done     func(*Result)
	nodes    opTable

	// deliver bound once per op so all-port sends don't allocate a
	// closure per unicast.
	deliverFn func(wormhole.Delivery)
}

// opNode mirrors nodeState for one node's role inside one treeOp.
type opNode struct {
	op    *treeOp
	sends []core.Send
	next  int
	stage int8
}

// RunEvent dispatches the node's pending software event (same staging as
// nodeState: receive overhead done, or one send's CPU setup done).
func (st *opNode) RunEvent() {
	if st.stage == nodeRecvDone {
		st.op.issueNext(st)
		return
	}
	st.op.setupDone(st)
}

// InjectTree schedules tr to start executing at absolute simulated time at
// (>= the current calendar time). The returned Result is filled in as the
// scenario runs: Recv times and Makespan are RELATIVE to the injection
// instant, so an op that runs without interference reproduces Run's result
// for the same tree exactly. TotalBlocked accumulates only this op's own
// unicast blocking (unlike RunMany's network-wide total). If done is
// non-nil it fires at the op's completion instant — the arrival of its
// last unicast — on the shared calendar.
func (s *Session) InjectTree(at event.Time, tr *core.Tree, bytes int, done func(*Result)) *Result {
	expected := tr.NumUnicasts()
	op := &treeOp{
		s:        s,
		src:      tr.Source,
		bytes:    bytes,
		expected: expected,
		done:     done,
		res: Result{
			Algorithm: tr.Algorithm,
			Bytes:     bytes,
			Recv:      make(map[topology.NodeID]event.Time, expected),
		},
	}
	op.deliverFn = op.deliver
	op.nodes.init(op, tr.Cube.Nodes(), len(tr.Order))
	for i, v := range tr.Order {
		op.nodes.state(op, v).sends = tr.Sends[i]
	}
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
		return
	}
	op.issueNext(op.nodes.state(op, op.src))
}

// issueNext and setupDone mirror runEnv's mechanics exactly: serial
// per-send CPU setup, with the one-port model additionally gating the next
// issue on the previous tail draining.
func (op *treeOp) issueNext(st *opNode) {
	if st.next >= len(st.sends) {
		return
	}
	st.next++
	st.stage = nodeSetupDone
	op.s.q.AfterOp(op.s.p.TStartup, st)
}

func (op *treeOp) setupDone(st *opNode) {
	snd := st.sends[st.next-1]
	if op.s.faulted {
		// Loss-tracked sends: a destroyed message strands the whole
		// subtree behind its target, which must be written off or the
		// op (and the scenario behind it) would wait forever.
		switch op.s.p.Port {
		case core.AllPort:
			op.s.net.SendTracked(snd.From, snd.To, op.bytes, op.deliverFn,
				func() { op.lose(snd.To) })
			op.issueNext(st)
		case core.OnePort:
			op.s.net.SendTracked(snd.From, snd.To, op.bytes, func(d wormhole.Delivery) {
				op.deliver(d)
				op.issueNext(st)
			}, func() {
				// The port frees when the message dies, exactly as on
				// a delivery: the node's later sends still go out.
				op.lose(snd.To)
				op.issueNext(st)
			})
		}
		return
	}
	switch op.s.p.Port {
	case core.AllPort:
		op.s.net.Send(snd.From, snd.To, op.bytes, op.deliverFn)
		op.issueNext(st)
	case core.OnePort:
		op.s.net.Send(snd.From, snd.To, op.bytes, func(d wormhole.Delivery) {
			op.deliver(d)
			op.issueNext(st)
		})
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
	op.lost++
	for _, snd := range op.nodes.state(op, v).sends {
		op.strand(snd.To)
	}
}

// deliver records one completed unicast in op-relative time and starts the
// receiver's software overhead. The op's done hook fires when the last
// outstanding delivery lands — i.e. at the makespan instant, matching
// Run's arrival-time semantics (the final receiver's residual TRecv is not
// part of the multicast delay, exactly as in Run).
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
	op.s.q.AfterOp(op.s.p.TRecv, st)
	op.expected--
	if op.expected == 0 && op.done != nil {
		op.done(&op.res)
	}
}
