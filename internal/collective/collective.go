// Package collective builds the rest of the collective-communication
// repertoire the paper's introduction motivates (MPI-style operations on
// wormhole-routed hypercubes) on top of the same machine model used for
// multicast: scatter and gather (personalized distribution), reduction,
// barrier synchronization, and all-gather. Every operation uses the
// classic dimension-ordered binomial/dissemination schedules, in which
// each message crosses exactly one channel, so the executions are
// physically contention-free by construction — a property the tests
// verify on the simulator.
package collective

import (
	"fmt"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/wormhole"
)

// Result reports one collective operation's execution.
type Result struct {
	// Finish is, per node, when that node completed its role (for data
	// movement: when its last required receipt arrived; for the root of
	// a gather/reduce: when the full result is assembled).
	Finish map[topology.NodeID]event.Time
	// Makespan is when the whole operation completed.
	Makespan event.Time
	// Messages is the number of point-to-point messages exchanged.
	Messages int
	// TotalBlocked is cumulative header blocking; the schedules used
	// here keep it at zero.
	TotalBlocked event.Time
}

// Substrate lets a collective schedule run on a calendar and network owned
// by someone else — a shared scenario (ncube.Session) with other concurrent
// operations — instead of the private pair the standalone entry points
// borrow. The schedule launches at the calendar's current time; the caller
// drives the queue. OnDone, if non-nil, fires on the calendar at the
// instant the last node finishes, with Finish times in ABSOLUTE simulated
// time (the standalone entry points, which launch at t=0, are the
// degenerate case where absolute and relative coincide). Pool, if non-nil,
// supplies the payload blocks and message records of data-carrying
// schedules, so operations sharing the calendar can share one; nil gives
// the operation a pool of its own.
type Substrate struct {
	Queue  *event.Queue
	Net    *wormhole.Network
	Params ncube.Params
	OnDone func(Result)
	Pool   *Pool
}

// engine bundles the shared simulation state of the collective schedules.
type engine struct {
	q         *event.Queue
	net       *wormhole.Network
	p         ncube.Params
	res       *Result
	remaining int // nodes that have not finished yet
	onDone    func(Result)
	// pool holds the data schedules' payload blocks and message records:
	// the substrate's shared one, or else ownPool.
	pool    *Pool
	ownPool Pool
	// session is the pooled calendar and network of a standalone run,
	// released by finish; nil on a caller's Substrate.
	session *ncube.Session
}

// newEngine makes a standalone engine on a pooled session for cube, on
// which members nodes take part (every node, except in ReduceTree).
func newEngine(p ncube.Params, cube topology.Cube, members int) *engine {
	s := ncube.NewSession(p, cube, ncube.Instrumentation{})
	e := newEngineWith(s.Queue(), s.Network(), p, members, nil, nil)
	e.session = s
	return e
}

func newEngineOn(sub Substrate) *engine {
	sub.Params.Validate()
	return newEngineWith(sub.Queue, sub.Net, sub.Params, sub.Net.Cube().Nodes(), sub.OnDone, sub.Pool)
}

func newEngineWith(q *event.Queue, net *wormhole.Network, p ncube.Params, members int, onDone func(Result), pool *Pool) *engine {
	e := &engine{
		q:         q,
		net:       net,
		p:         p,
		res:       &Result{Finish: make(map[topology.NodeID]event.Time, members)},
		remaining: members,
		onDone:    onDone,
		pool:      pool,
	}
	if e.pool == nil {
		e.pool = &e.ownPool
	}
	return e
}

// finished records node v completing its role at time t, maintains the
// makespan, and fires the completion hook when the last node lands.
func (e *engine) finished(v topology.NodeID, t event.Time) {
	if _, dup := e.res.Finish[v]; !dup {
		e.remaining--
	}
	e.res.Finish[v] = t
	if t > e.res.Makespan {
		e.res.Makespan = t
	}
	if e.remaining == 0 && e.onDone != nil {
		e.onDone(*e.res)
	}
}

func (e *engine) finish() Result {
	e.q.MustRun(0, 0)
	if e.session != nil {
		e.session.Release()
	}
	return *e.res
}

// sendSpec is one message of a schedule.
type sendSpec struct {
	to    topology.NodeID
	bytes int
	// tag identifies the message to the receiver's handler.
	tag int
}

// sendSeq issues node's sends serially (TStartup each), respecting the
// port model, invoking each onDelivered as the matching tail arrives.
func (e *engine) sendSeq(node topology.NodeID, sends []sendSpec, onDelivered func(spec sendSpec, d wormhole.Delivery)) {
	var issue func(i int)
	issue = func(i int) {
		if i >= len(sends) {
			return
		}
		s := sends[i]
		e.q.After(e.p.TStartup, func() {
			e.res.Messages++
			done := func(d wormhole.Delivery) {
				// Per-delivery accumulation keeps the total per-operation
				// on a shared network; standalone it equals
				// net.TotalBlocked() (every send passes through here).
				e.res.TotalBlocked += d.Blocked
				if onDelivered != nil {
					onDelivered(s, d)
				}
			}
			switch e.p.Port {
			case core.AllPort:
				e.net.Send(node, s.to, s.bytes, done)
				issue(i + 1)
			case core.OnePort:
				e.net.Send(node, s.to, s.bytes, func(d wormhole.Delivery) {
					done(d)
					issue(i + 1)
				})
			}
		})
	}
	issue(0)
}

// rel/abs translate between a root-relative canonical address space and
// machine addresses, as in the multicast core.
func relOf(c topology.Cube, root, v topology.NodeID) topology.NodeID {
	return c.Canon(v) ^ c.Canon(root)
}

func absOf(c topology.Cube, root, r topology.NodeID) topology.NodeID {
	return c.Canon(r ^ c.Canon(root))
}

// highBit returns the position of the highest set bit, or -1 for zero.
func highBit(v topology.NodeID) int {
	h := -1
	for d := 0; v != 0; d++ {
		if v&1 != 0 {
			h = d
		}
		v >>= 1
	}
	return h
}

// lowBit returns the position of the lowest set bit, or n for zero.
func lowBit(v topology.NodeID, n int) int {
	for d := 0; d < n; d++ {
		if v&(1<<uint(d)) != 0 {
			return d
		}
	}
	return n
}

// Scatter distributes a distinct blockBytes-sized block from root to every
// node using the dimension-descending binomial schedule: a holder of the
// blocks for a 2^h-node subcube forwards, per dimension d < h, the 2^d
// blocks of the opposite half to its dimension-d neighbor. Every message
// crosses one channel.
func Scatter(p ncube.Params, cube topology.Cube, root topology.NodeID, blockBytes int) Result {
	cube.MustContain(root)
	if blockBytes < 0 {
		panic("collective: negative block size")
	}
	e := newEngine(p, cube, cube.Nodes())
	scatterOn(e, cube, root, blockBytes)
	return e.finish()
}

// ScatterOn launches Scatter's schedule on a shared substrate at the
// calendar's current time; the caller drives the queue. The returned
// Result is filled in as the scenario runs.
func ScatterOn(sub Substrate, root topology.NodeID, blockBytes int) *Result {
	cube := sub.Net.Cube()
	cube.MustContain(root)
	if blockBytes < 0 {
		panic("collective: negative block size")
	}
	e := newEngineOn(sub)
	scatterOn(e, cube, root, blockBytes)
	return e.res
}

func scatterOn(e *engine, cube topology.Cube, root topology.NodeID, blockBytes int) {
	var deliver func(s sendSpec, d wormhole.Delivery)
	forward := func(node topology.NodeID, h int) {
		r := relOf(cube, root, node)
		var sends []sendSpec
		for d := h - 1; d >= 0; d-- {
			sends = append(sends, sendSpec{
				to:    absOf(cube, root, r|1<<uint(d)),
				bytes: blockBytes * (1 << uint(d)),
				tag:   d,
			})
		}
		e.sendSeq(node, sends, deliver)
	}
	deliver = func(s sendSpec, d wormhole.Delivery) {
		e.finished(d.To, d.Arrived)
		e.q.After(e.p.TRecv, func() { forward(d.To, s.tag) })
	}
	e.finished(root, e.q.Now())
	forward(root, cube.Dim())
}

// Gather is the inverse of Scatter: every node's block converges on root
// along the dimension-ascending binomial tree; a node at low-bit position
// L first absorbs its L children's accumulated blocks, then forwards
// 2^L blocks toward the root.
func Gather(p ncube.Params, cube topology.Cube, root topology.NodeID, blockBytes int) Result {
	cube.MustContain(root)
	if blockBytes < 0 {
		panic("collective: negative block size")
	}
	return gatherLike(p, cube, root, func(sub int) int { return blockBytes * sub }, 0)
}

// GatherOn launches Gather's schedule on a shared substrate at the
// calendar's current time; the caller drives the queue.
func GatherOn(sub Substrate, root topology.NodeID, blockBytes int) *Result {
	cube := sub.Net.Cube()
	cube.MustContain(root)
	if blockBytes < 0 {
		panic("collective: negative block size")
	}
	e := newEngineOn(sub)
	gatherLikeOn(e, cube, root, func(sub int) int { return blockBytes * sub }, 0)
	return e.res
}

// Reduce performs an all-to-one reduction: partial results of a fixed
// bytes size flow up the same tree as Gather, and each node spends
// tCompute combining each arriving child contribution.
func Reduce(p ncube.Params, cube topology.Cube, root topology.NodeID, bytes int, tCompute event.Time) Result {
	cube.MustContain(root)
	if bytes < 0 || tCompute < 0 {
		panic("collective: negative reduce parameter")
	}
	return gatherLike(p, cube, root, func(int) int { return bytes }, tCompute)
}

// gatherLike runs the ascending binomial convergecast. sizeOf maps the
// sender's accumulated subtree size (number of nodes) to message bytes.
func gatherLike(p ncube.Params, cube topology.Cube, root topology.NodeID, sizeOf func(sub int) int, tCompute event.Time) Result {
	e := newEngine(p, cube, cube.Nodes())
	gatherLikeOn(e, cube, root, sizeOf, tCompute)
	return e.finish()
}

func gatherLikeOn(e *engine, cube topology.Cube, root topology.NodeID, sizeOf func(sub int) int, tCompute event.Time) {
	n := cube.Dim()
	// pending[r] counts children a node still waits for before sending.
	pending := make([]int, cube.Nodes())
	var ready func(r topology.NodeID)
	ready = func(r topology.NodeID) {
		node := absOf(cube, root, r)
		if r == 0 {
			e.finished(node, e.q.Now())
			return
		}
		L := lowBit(r, n)
		parent := r &^ (1 << uint(L))
		spec := sendSpec{to: absOf(cube, root, parent), bytes: sizeOf(1 << uint(L)), tag: int(r)}
		e.sendSeq(node, []sendSpec{spec}, func(s sendSpec, d wormhole.Delivery) {
			e.finished(node, d.Arrived) // contribution delivered
			pr := relOf(cube, root, d.To)
			e.q.After(e.p.TRecv+tCompute, func() {
				pending[pr]--
				if pending[pr] == 0 {
					ready(pr)
				}
			})
		})
	}
	for v := 0; v < cube.Nodes(); v++ {
		r := topology.NodeID(v)
		// Children of r are r | 1<<d for d < lowBit(r).
		pending[r] = lowBit(r, n)
	}
	for v := 0; v < cube.Nodes(); v++ {
		r := topology.NodeID(v)
		if pending[r] == 0 {
			ready(r)
		}
	}
}

// exchangeRounds runs an n-round pairwise-exchange schedule (the shared
// skeleton of Barrier, AllGather, and AllReduce): in round k every node
// sends bytesOf(k) bytes to its dimension-k neighbor and enters round k+1
// only after both issuing its round-k send and receiving (and processing,
// tCompute) its partner's round-k message. Receipts arriving out of round
// order are buffered.
func exchangeRounds(p ncube.Params, cube topology.Cube, bytesOf func(round int) int) Result {
	return exchangeRoundsCompute(p, cube, bytesOf, 0)
}

func exchangeRoundsCompute(p ncube.Params, cube topology.Cube, bytesOf func(round int) int, tCompute event.Time) Result {
	e := newEngine(p, cube, cube.Nodes())
	exchangeRoundsOn(e, cube, bytesOf, tCompute)
	return e.finish()
}

func exchangeRoundsOn(e *engine, cube topology.Cube, bytesOf func(round int) int, tCompute event.Time) {
	n := cube.Dim()
	got := make([][]bool, cube.Nodes())
	for v := range got {
		got[v] = make([]bool, n)
	}
	round := make([]int, cube.Nodes()) // next round not yet started
	var start func(v topology.NodeID)
	advance := func(v topology.NodeID) {
		// Enter the next round once the current one is fully done;
		// consume any receipts that arrived ahead of order.
		for round[v] < n && got[v][round[v]] {
			round[v]++
			if round[v] == n {
				e.finished(v, e.q.Now())
				return
			}
			start(v)
		}
	}
	start = func(v topology.NodeID) {
		k := round[v]
		partner := cube.Neighbor(v, k)
		e.sendSeq(v, []sendSpec{{to: partner, bytes: bytesOf(k), tag: k}}, func(s sendSpec, d wormhole.Delivery) {
			e.q.After(e.p.TRecv+tCompute, func() {
				got[d.To][s.tag] = true
				if s.tag == round[d.To] {
					advance(d.To)
				}
			})
		})
	}
	for v := 0; v < cube.Nodes(); v++ {
		start(topology.NodeID(v))
	}
}

// Barrier runs the dissemination barrier: in round k every node notifies
// its dimension-k neighbor and proceeds once it has received that round's
// notification, completing after n rounds. Notifications are 8-byte
// messages.
func Barrier(p ncube.Params, cube topology.Cube) Result {
	const noteBytes = 8
	return exchangeRounds(p, cube, func(int) int { return noteBytes })
}

// AllGather performs the recursive-doubling all-gather: in round d every
// node exchanges its accumulated 2^d blocks with its dimension-d neighbor,
// finishing with all N blocks everywhere.
func AllGather(p ncube.Params, cube topology.Cube, blockBytes int) Result {
	if blockBytes < 0 {
		panic("collective: negative block size")
	}
	return exchangeRounds(p, cube, func(d int) int { return blockBytes * (1 << uint(d)) })
}

// AllGatherOn launches AllGather's schedule on a shared substrate at the
// calendar's current time; the caller drives the queue.
func AllGatherOn(sub Substrate, blockBytes int) *Result {
	if blockBytes < 0 {
		panic("collective: negative block size")
	}
	e := newEngineOn(sub)
	exchangeRoundsOn(e, sub.Net.Cube(), func(d int) int { return blockBytes * (1 << uint(d)) }, 0)
	return e.res
}

// AllReduce combines a fixed-size vector across all nodes and leaves the
// result everywhere, using the butterfly (recursive-doubling exchange)
// schedule: n rounds of pairwise exchange-and-combine, tCompute per merge.
// Equivalent to Reduce followed by a broadcast but with half the rounds
// and perfectly symmetric load.
func AllReduce(p ncube.Params, cube topology.Cube, bytes int, tCompute event.Time) Result {
	if bytes < 0 || tCompute < 0 {
		panic("collective: negative allreduce parameter")
	}
	return exchangeRoundsCompute(p, cube, func(int) int { return bytes }, tCompute)
}

// check that engine.finish leaves no one behind.
func (r Result) complete(nodes int) error {
	if len(r.Finish) != nodes {
		return fmt.Errorf("collective: %d of %d nodes finished", len(r.Finish), nodes)
	}
	return nil
}
