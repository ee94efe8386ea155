package ncube

import (
	"fmt"

	"hypercube/internal/chain"
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/faults"
	"hypercube/internal/topology"
	"hypercube/internal/wormhole"
)

// This file is the fault-tolerant form of the distributed protocol: the
// multicast of RunDistributed hardened against the failures internal/faults
// injects. Three mechanisms stack on the plain protocol:
//
//  1. End-to-end acknowledgment per unicast. Every data message is acked by
//     its receiver; a sender that sees no ack within a timeout retransmits,
//     with bounded exponential backoff, up to a per-unicast retry budget
//     (Params.AckTimeout / AckBackoff / MaxRetries). Duplicate arrivals are
//     detected and re-acked, never re-forwarded, so lost acks cost only
//     traffic.
//
//  2. Multicast-tree repair. When a child stays silent through the whole
//     retry budget the parent assumes the path (or the child) is gone and
//     repairs its subtree: first it detours — relaying the original send
//     through each neighbor in turn, giving the deterministic E-cube route
//     a different set of channels — and if every detour fails it strips
//     the child from the address chain and recomputes its local sends
//     (core.LocalSendsAt) over the surviving destination set, rerouting
//     around the dead subtree. Repair traffic carries full retry budgets
//     and repairs recursively; every level strictly shrinks the chain, so
//     the recursion terminates.
//
//  3. A watchdog. The event loop runs under event.Queue.RunBudget with the
//     budgets in Params, and the wormhole network registers its
//     held-channel snapshot as the queue's diagnoser — a wedged network
//     (faults.Stall) produces a diagnostic instead of a hang.
//
// The per-destination outcome lands in Result.Status. A known limitation,
// inherent to per-unicast acknowledgment: a node that crashes after acking
// but before forwarding strands its subtree (ends up StatusUnreachable);
// only end-to-end acks aggregated over whole subtrees would catch that.

// ackBytes is the size of an end-to-end acknowledgment: a header-only
// message (sequence number, no payload).
const ackBytes = 8

// maxBackoffShift caps exponential timeout growth at base * 2^10 so a long
// retry budget cannot overflow the clock.
const maxBackoffShift = 10

// NodeOracle answers the protocol's fail-stop queries. *faults.Injector
// and *faults.Schedule both implement it; nil means no node ever fails.
type NodeOracle interface {
	NodeDown(v topology.NodeID, at event.Time) bool
}

// neverDown is the nil NodeOracle: every node stays alive.
type neverDown struct{}

func (neverDown) NodeDown(topology.NodeID, event.Time) bool { return false }

// RunFaultTolerantInstrumented executes the distributed multicast protocol
// under the given fault plan. Unlike the fault-free entry points it returns
// errors instead of panicking on malformed configuration, and a watchdog
// *event.Diagnostic (with the network's held-channel snapshot) when the
// event-loop budget trips. The Result is meaningful even when an error is
// returned: it reports everything delivered up to the abort.
//
// Observability rides along: tracer callbacks on every channel event
// (flushed at teardown even when the watchdog aborts the run), and metrics
// covering the event kernel, the interconnect, and the protocol's recovery
// work ("mcast_retries", "mcast_repairs").
func RunFaultTolerantInstrumented(jp JitterParams, cube topology.Cube, a core.Algorithm, src topology.NodeID, dests []topology.NodeID, bytes int, plan faults.Plan, ins Instrumentation) (Result, error) {
	if err := jp.Err(); err != nil {
		return Result{}, err
	}
	if err := plan.ErrOn(cube); err != nil {
		return Result{}, err
	}
	if bytes < 0 {
		return Result{}, fmt.Errorf("ncube: negative message size %d", bytes)
	}
	if int(src) < 0 || int(src) >= cube.Nodes() {
		return Result{}, fmt.Errorf("ncube: source %v outside %d-cube", src, cube.Dim())
	}
	for _, d := range dests {
		if int(d) < 0 || int(d) >= cube.Nodes() {
			return Result{}, fmt.Errorf("ncube: destination %v outside %d-cube", d, cube.Dim())
		}
	}

	inj := faults.New(plan)
	s := NewSession(jp.Params, cube, ins)
	r := &ftRun{
		jp:     jp,
		cube:   cube,
		alg:    a,
		src:    src,
		bytes:  bytes,
		q:      &s.q,
		net:    s.net,
		inj:    inj,
		jitter: jp.jitter(),
		got:    make(map[topology.NodeID]bool),
		isDest: destSet(src, dests),
	}
	s.SetFaults(inj)
	s.armDiagnoser()
	ins.Metrics.Counter("mcast_runs").Inc()
	r.initReliability()
	r.res = &Result{
		Algorithm: a,
		Bytes:     bytes,
		Recv:      make(map[topology.NodeID]event.Time),
		Status:    make(map[topology.NodeID]DeliveryStatus, len(r.isDest)),
	}

	r.got[src] = true // the initiator holds the message
	r.forward(src, core.StartPayload(cube, a, src, dests), false)
	end, werr := r.q.RunBudget(jp.WatchdogSteps, jp.WatchdogTime)
	r.res.TotalBlocked = r.net.TotalBlocked()
	// Flush open trace intervals even (especially) on a watchdog abort:
	// a stall-mode fault run ends with channels still held, and those
	// spans are exactly the utilization signal of interest.
	finishTracer(ins.Tracer, end)
	ins.Metrics.Counter("mcast_retries").Add(int64(r.res.Retries))
	ins.Metrics.Counter("mcast_repairs").Add(int64(r.res.Repairs))
	r.classifyUnreached(end)
	if werr == nil {
		// An aborted run's session is dropped, like a panicked one's.
		s.Release()
	}
	return *r.res, werr
}

// initReliability fills the retry knobs from jp, applying the documented
// defaults.
func (r *ftRun) initReliability() {
	r.timeout = r.jp.AckTimeout
	if r.timeout == 0 {
		// Worst-case uncontended round trip of this machine, with slack
		// for queueing: software costs, a diameter of hops each way, and
		// both drains.
		r.timeout = 4 * (r.jp.TStartup + r.jp.TRecv +
			2*event.Time(r.cube.Dim())*r.jp.THop +
			event.Time(r.bytes+ackBytes)*r.jp.TByte)
	}
	r.backoff = r.jp.AckBackoff
	if r.backoff == 0 {
		r.backoff = 2
	}
	r.budget = r.jp.MaxRetries
	if r.budget == 0 {
		r.budget = 3
	}
}

// classifyUnreached assigns a terminal status to every destination the
// protocol never reached: the node itself died, or it stayed alive but
// partitioned/starved past every retry and repair.
func (r *ftRun) classifyUnreached(end event.Time) {
	for d := range r.isDest {
		if r.got[d] {
			continue // status recorded at first arrival
		}
		if r.inj.NodeDown(d, end) {
			r.res.Status[d] = StatusDeadNode
		} else {
			r.res.Status[d] = StatusUnreachable
		}
	}
}

// destSet builds the requested-destination membership map (the source is
// never its own destination).
func destSet(src topology.NodeID, dests []topology.NodeID) map[topology.NodeID]bool {
	m := make(map[topology.NodeID]bool, len(dests))
	for _, d := range dests {
		if d != src {
			m[d] = true
		}
	}
	return m
}

// ftRun bundles the state of one fault-tolerant execution. Standalone runs
// (RunFaultTolerantInstrumented) own their session's calendar and network
// and detect completion by driving the calendar dry; session runs
// (Session.InjectFaultTolerant) share both with concurrent operations, so
// they instead count their own outstanding work — every scheduled callback
// and every in-flight message — and finish when the count drains to zero.
type ftRun struct {
	jp    JitterParams
	cube  topology.Cube
	alg   core.Algorithm
	src   topology.NodeID
	bytes int

	q      *event.Queue
	net    *wormhole.Network
	inj    NodeOracle
	jitter jitter

	timeout event.Time
	backoff float64
	budget  int

	res    *Result
	isDest map[topology.NodeID]bool
	got    map[topology.NodeID]bool // first full arrival seen (dedup)

	// Session-mode completion accounting (onDone nil selects the
	// standalone behavior, bit-for-bit).
	start       event.Time // injection instant; Recv times are relative to it
	outstanding int        // counted callbacks + in-flight messages
	onDone      func()
	finished    bool
}

// after schedules fn on the calendar; in session mode the pending callback
// is counted so the op can detect its own completion on a shared calendar
// that never drains just for it.
func (r *ftRun) after(d event.Time, fn func()) {
	if r.onDone == nil {
		r.q.After(d, fn)
		return
	}
	r.outstanding++
	r.q.After(d, func() {
		fn()
		r.settle()
	})
}

// send transmits one protocol message; in session mode it is loss-tracked,
// so a message the fault model destroys settles the op's accounting
// instead of leaking an outstanding count (stall-wedged messages settle
// nothing — a wedged op is the watchdog's business, exactly as standalone).
func (r *ftRun) send(from, to topology.NodeID, size int, done func(wormhole.Delivery)) {
	if r.onDone == nil {
		r.net.Send(from, to, size, done)
		return
	}
	r.outstanding++
	r.net.SendTracked(from, to, size, func(d wormhole.Delivery) {
		r.res.TotalBlocked += d.Blocked // per-op blocking on the shared net
		done(d)
		r.settle()
	}, r.settle)
}

func (r *ftRun) settle() {
	r.outstanding--
	if r.outstanding == 0 && !r.finished {
		r.finish()
	}
}

// finish fires once, at the instant the op's last outstanding event
// resolves: terminal statuses are assigned and the completion hook runs.
func (r *ftRun) finish() {
	if r.finished {
		return
	}
	r.finished = true
	r.classifyUnreached(r.q.Now())
	if r.onDone != nil {
		r.onDone()
	}
}

// timeoutFor returns the ack wait of retry k: base * backoff^k, capped.
func (r *ftRun) timeoutFor(k int) event.Time {
	if k > maxBackoffShift {
		k = maxBackoffShift
	}
	w := float64(r.timeout)
	for i := 0; i < k; i++ {
		w *= r.backoff
	}
	return event.Time(w)
}

func (r *ftRun) rel(v topology.NodeID) topology.NodeID {
	return r.cube.Canon(v) ^ r.cube.Canon(r.src)
}

func (r *ftRun) abs(rel topology.NodeID) topology.NodeID {
	return r.cube.Canon(rel ^ r.cube.Canon(r.src))
}

// accept processes the first full arrival of the message at node to:
// records receipt (and the destination's status), then forwards the
// node's subtree after the software receive overhead. Duplicates are
// ignored — the caller has already re-acked them.
func (r *ftRun) accept(to topology.NodeID, payload chain.Chain, how DeliveryStatus, at event.Time) {
	if r.got[to] {
		return
	}
	r.got[to] = true
	rel := at - r.start // op-relative receipt (start is 0 standalone)
	r.res.Recv[to] = rel
	if rel > r.res.Makespan {
		r.res.Makespan = rel
	}
	if r.isDest[to] {
		r.res.Status[to] = how
	}
	r.after(r.jitter.of(r.jp.TRecv), func() { r.forward(to, payload, how == StatusRerouted) })
}

// forward computes node v's local sends from the received address field and
// issues them under the port model. rerouted marks repair-path traffic so
// downstream deliveries classify as StatusRerouted.
func (r *ftRun) forward(v topology.NodeID, payload chain.Chain, rerouted bool) {
	if r.inj.NodeDown(v, r.q.Now()) {
		return // a dead node forwards nothing; parents' timeouts see it
	}
	r.issue(v, core.LocalSendsAt(r.cube, r.alg, r.src, v, payload), 0, rerouted)
}

// issue transmits sends[i:] from node v: the all-port model overlaps
// transmissions behind the serial per-send CPU setup, while the one-port
// model admits the next unicast once the current one resolves (acked or
// given up) — the fault-tolerant analogue of waiting for the DMA pair to
// drain.
func (r *ftRun) issue(v topology.NodeID, sends []core.Send, i int, rerouted bool) {
	if i >= len(sends) {
		return
	}
	next := func() { r.issue(v, sends, i+1, rerouted) }
	switch r.jp.Port {
	case core.AllPort:
		r.sendSubtree(sends[i], rerouted, next, nil)
	case core.OnePort:
		r.sendSubtree(sends[i], rerouted, nil, next)
	}
}

// sendSubtree delivers one tree edge reliably; exhausting its retry budget
// triggers repair of the whole subtree the edge carries.
func (r *ftRun) sendSubtree(s core.Send, rerouted bool, onInjected, onResolve func()) {
	r.reliable(s.From, s.To, r.bytes,
		func(at event.Time, attempt int) {
			how := StatusDelivered
			switch {
			case rerouted:
				how = StatusRerouted
			case attempt > 0:
				how = StatusRetried
			}
			r.accept(s.To, s.Payload, how, at)
		},
		onInjected, onResolve,
		func() { r.repair(s) })
}

// reliable implements the ack/timeout/retry loop for one unicast.
// onDeliver fires at the receiver for every full (untruncated) arrival,
// with the attempt number that produced it. onInjected (optional) fires
// once, when the first attempt enters the network. onResolve (optional)
// fires once, when the unicast is acked or given up. giveUp (optional)
// fires after the last timeout expires unacked.
func (r *ftRun) reliable(from, to topology.NodeID, size int, onDeliver func(at event.Time, attempt int), onInjected, onResolve, giveUp func()) {
	acked := false
	resolve := func() {
		if onResolve != nil {
			f := onResolve
			onResolve = nil
			f()
		}
	}
	var attempt func(k int)
	attempt = func(k int) {
		if r.inj.NodeDown(from, r.q.Now()) {
			resolve() // dead sender: the unicast dies with it
			return
		}
		r.after(r.jitter.of(r.jp.TStartup), func() {
			if k == 0 && onInjected != nil {
				onInjected()
			}
			if acked {
				return // the ack raced the retry's setup; stop resending
			}
			r.send(from, to, size, func(d wormhole.Delivery) {
				if d.Truncated {
					return // corrupt copy: the receiver discards it
				}
				onDeliver(d.Arrived, k)
				// End-to-end acknowledgment, itself subject to faults.
				r.send(to, from, ackBytes, func(ack wormhole.Delivery) {
					if ack.Truncated || acked {
						return
					}
					acked = true
					resolve()
				})
			})
			r.after(r.timeoutFor(k), func() {
				if acked {
					return
				}
				if k >= r.budget {
					resolve()
					if giveUp != nil {
						giveUp()
					}
					return
				}
				r.res.Retries++
				attempt(k + 1)
			})
		})
	}
	attempt(0)
}

// repair reacts to a given-up tree edge: detour first, then recompute.
func (r *ftRun) repair(s core.Send) {
	r.res.Repairs++
	r.relayMission(s, r.relayCandidates(s.From, s.To), 0)
}

// relayCandidates lists the neighbors of v to try as relays toward child,
// highest dimension first (matching E-cube's resolution order, so the
// detour diverges from the failed path as early as possible).
func (r *ftRun) relayCandidates(v, child topology.NodeID) []topology.NodeID {
	nbrs := r.cube.Neighbors(v)
	out := make([]topology.NodeID, 0, len(nbrs))
	for i := len(nbrs) - 1; i >= 0; i-- {
		if nbrs[i] != child {
			out = append(out, nbrs[i])
		}
	}
	return out
}

// relayMission routes the failed edge's full payload through cands[i]: two
// reliable legs, v -> w (relay wrapper) then w -> child (original data).
// Any leg exhausting its budget advances to the next candidate; running
// out of candidates falls back to stripping the child and recomputing the
// subtree.
func (r *ftRun) relayMission(s core.Send, cands []topology.NodeID, i int) {
	if r.got[s.To] {
		// The child surfaced meanwhile (late arrival or a parallel
		// repair); its subtree is already forwarding.
		return
	}
	if i >= len(cands) {
		r.stripAndReroute(s)
		return
	}
	w := cands[i]
	next := func() { r.relayMission(s, cands, i+1) }
	launched := false
	r.reliable(s.From, w, r.bytes,
		func(_ event.Time, _ int) {
			if launched {
				return // duplicate relay arrival at w
			}
			launched = true
			// w unwraps the relay after its receive overhead and sends
			// the original payload on to the child.
			r.after(r.jitter.of(r.jp.TRecv), func() {
				if r.inj.NodeDown(w, r.q.Now()) {
					return // relay died holding the message
				}
				r.reliable(w, s.To, r.bytes,
					func(at event.Time, _ int) {
						r.accept(s.To, s.Payload, StatusRerouted, at)
					},
					nil, nil, next)
			})
		},
		nil, nil, next)
}

// InjectFaultTolerant schedules one fault-tolerant distributed multicast
// (the ack/retry + tree-repair protocol of RunFaultTolerantInstrumented) to
// start at absolute simulated time at on the session's shared calendar and
// network, concurrently with whatever else the session runs. Node fail-stop queries
// go to oracle (typically the same faults.Schedule installed on the
// network via SetFaults; nil means no node ever fails). The returned
// Result is filled in as the scenario runs, with Recv times and Makespan
// RELATIVE to the injection instant; done fires on the calendar at the
// instant the op's last outstanding event — a scheduled callback or an
// in-flight message — resolves, with per-destination Status complete.
// Stall-wedged messages never resolve: such an op stays incomplete and the
// session watchdog reports it.
func (s *Session) InjectFaultTolerant(at event.Time, a core.Algorithm, src topology.NodeID, dests []topology.NodeID, bytes int, oracle NodeOracle, done func(*Result)) *Result {
	if oracle == nil {
		oracle = neverDown{}
	}
	cube := s.net.Cube()
	r := &ftRun{
		jp:     JitterParams{Params: s.p},
		cube:   cube,
		alg:    a,
		src:    src,
		bytes:  bytes,
		q:      &s.q,
		net:    s.net,
		inj:    oracle,
		got:    make(map[topology.NodeID]bool, len(dests)+1),
		isDest: destSet(src, dests),
	}
	r.initReliability()
	r.res = &Result{
		Algorithm: a,
		Bytes:     bytes,
		Recv:      make(map[topology.NodeID]event.Time, len(dests)),
		Status:    make(map[topology.NodeID]DeliveryStatus, len(r.isDest)),
	}
	r.onDone = func() {
		if done != nil {
			done(r.res)
		}
	}
	payload := core.StartPayload(cube, a, src, dests)
	s.q.At(at, func() {
		r.start = s.q.Now()
		r.got[src] = true // the initiator holds the message
		r.forward(src, payload, false)
		if r.outstanding == 0 {
			r.finish() // nothing to do (e.g. the source is already dead)
		}
	})
	return r.res
}

// stripAndReroute is the last repair resort: the child is treated as dead,
// and the subtree it was to serve is recomputed from the sender over the
// surviving destinations.
func (r *ftRun) stripAndReroute(s core.Send) {
	v := s.From
	switch r.alg {
	case core.SeparateAddressing:
		// The payload is the child alone; nothing else is stranded.
		return
	case core.SFBinomial:
		// The lost payload is a bare responsibility list. Re-splitting
		// it from v would target the same dead partner, so fall back to
		// direct sends for each stranded survivor.
		for _, rel := range s.Payload {
			to := r.abs(rel)
			if to == s.To || r.got[to] {
				continue
			}
			r.sendSubtree(core.Send{From: v, To: to, Payload: nil}, true, nil, nil)
		}
	default:
		rest := s.Payload[1:]
		if len(rest) == 0 {
			return
		}
		repaired := make(chain.Chain, 0, len(rest)+1)
		repaired = append(repaired, r.rel(v))
		repaired = append(repaired, rest...)
		r.issue(v, core.LocalSendsAt(r.cube, r.alg, r.src, v, repaired), 0, true)
	}
}
