// Package collective builds the rest of the collective-communication
// repertoire the paper's introduction motivates (MPI-style operations on
// wormhole-routed hypercubes) on top of the same machine model used for
// multicast: scatter and gather (personalized distribution), reduction,
// barrier synchronization, all-gather, and the data-carrying reductions
// and all-to-all of payload.go.
//
// Every collective is a declaration run by one executor. The executor
// (pool.go) issues each message as a pooled, pre-bound record, which
// enters the network TStartup after its send is issued and is handed to
// the schedule TRecv plus the schedule's compute charge after its tail
// arrives. A timing-only collective is the same executor with a byte
// count and no payload. The declarations take one of two shapes:
//
//   - a round exchange (exchangeSched): in round k every node sends to
//     its neighbor across one dimension and enters round k+1 once it has
//     absorbed its partner's round-k message — Barrier, AllGather, the
//     butterfly AllReduce, halving-doubling and the all-to-all;
//   - a tree given by a parent rule, run upward (convergecast: Gather,
//     Reduce, ReduceData, ReduceTree) or downward (the Scatter fan-out).
//
// The ring allreduce keeps its own receive rule on the same executor.
// The dimension-ordered schedules send every message across exactly one
// channel, so their executions are physically contention-free by
// construction — a property the tests verify on the simulator.
//
// Each collective has one launch, which runs on a Substrate; a standalone
// entry point is that launch on a throwaway substrate of its own.
package collective

import (
	"fmt"

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

// Substrate is the calendar and network a collective's launch runs on,
// owned by the caller: a shared scenario (ncube.Session) with other
// concurrent operations, or the throwaway session of a standalone entry
// point. The launch starts at the calendar's current time and the caller
// drives the queue. OnDone, if non-nil, fires on the calendar at the
// instant the last node finishes, with Finish times in ABSOLUTE simulated
// time (a standalone run, which launches at t=0, is the degenerate case
// where absolute and relative coincide). Pool, if non-nil, supplies the
// message records and payload blocks, so operations sharing the calendar
// can share one; nil gives the operation a pool of its own.
type Substrate struct {
	Queue  *event.Queue
	Net    *wormhole.Network
	Params ncube.Params
	OnDone func(Result)
	Pool   *Pool
}

// engine is the executor's state for one launched collective: the
// substrate, the Result being filled in, and the declaration it runs.
type engine struct {
	q         *event.Queue
	net       *wormhole.Network
	p         ncube.Params
	res       *Result
	remaining int // nodes that have not finished yet
	onDone    func(Result)
	// pool holds the message records and payload blocks: the
	// substrate's shared one, or else ownPool.
	pool    *Pool
	ownPool Pool

	sched schedule   // receives every delivered message
	fan   fanOut     // sched, when its nodes send several messages in a row
	recv  event.Time // TRecv + the schedule's compute charge per receipt
	fin   role       // the node a delivery finishes
}

// newEngine starts a launch on sub, whose cube's nodes all take part.
func newEngine(sub Substrate) *engine {
	sub.Params.Validate()
	nodes := sub.Net.Cube().Nodes()
	e := &engine{
		q:         sub.Queue,
		net:       sub.Net,
		p:         sub.Params,
		res:       &Result{Finish: make(map[topology.NodeID]event.Time, nodes)},
		remaining: nodes,
		onDone:    sub.OnDone,
		pool:      sub.Pool,
	}
	if e.pool == nil {
		e.pool = &e.ownPool
	}
	return e
}

// declare sets the schedule the engine runs: s receives each message
// TRecv+tCompute after its tail arrives, and a delivery finishes the node
// fin names.
func (e *engine) declare(s schedule, tCompute event.Time, fin role) {
	e.sched, e.recv, e.fin = s, e.p.TRecv+tCompute, fin
	e.fan, _ = s.(fanOut)
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

// standalone runs launch on a throwaway substrate — a pooled session of
// its own for cube, drained and released before it returns — as core.Build
// wraps a throwaway workspace.
func standalone[R any](p ncube.Params, cube topology.Cube, launch func(Substrate) *R) *R {
	s := ncube.NewSession(p, cube, ncube.Instrumentation{})
	r := launch(Substrate{Queue: s.Queue(), Net: s.Network(), Params: p})
	s.Queue().MustRun(0, 0)
	s.Release()
	return r
}

// rel/abs translate between a root-relative canonical address space and
// machine addresses, as in the multicast core.
func relOf(c topology.Cube, root, v topology.NodeID) topology.NodeID {
	return c.Canon(v) ^ c.Canon(root)
}

func absOf(c topology.Cube, root, r topology.NodeID) topology.NodeID {
	return c.Canon(r ^ c.Canon(root))
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

// exchangeSched declares a round exchange: in round k every node ships
// outbound(v, k) — bytes on the wire, and the payload, nil when
// timing-only — to its neighbor across dimension dim(k), then absorbs its
// partner's round-k payload.
type exchangeSched interface {
	dim(k int) int
	outbound(v topology.NodeID, k int) (bytes int, data []float64)
	absorb(v topology.NodeID, k int, data []float64)
}

// noPayload files a timing-only receipt, so that a nil buffer entry
// always means "not yet received".
var noPayload = []float64{}

// exchange runs an exchangeSched: every node enters round k+1 only after
// both issuing its round-k send and absorbing its partner's round-k
// message (TRecv + tCompute after the tail arrives). Out-of-order
// receipts are buffered and absorbed in round order.
type exchange struct {
	e      *engine
	cube   topology.Cube
	s      exchangeSched
	rounds int
	buf    [][]float64 // buf[v*rounds+k]: node v's round-k receipt until absorbed
	round  []int       // per node, the next round not yet started
}

// exchangeOn launches s's rounds on e's substrate.
func exchangeOn(e *engine, rounds int, s exchangeSched, tCompute event.Time) {
	cube := e.net.Cube()
	nodes := cube.Nodes()
	x := &exchange{
		e: e, cube: cube, s: s, rounds: rounds,
		buf:   make([][]float64, nodes*rounds),
		round: make([]int, nodes),
	}
	e.declare(x, tCompute, finishNone)
	for v := 0; v < nodes; v++ {
		x.start(topology.NodeID(v))
	}
}

func (x *exchange) start(v topology.NodeID) {
	k := x.round[v]
	bytes, data := x.s.outbound(v, k)
	x.e.send(v, x.cube.Neighbor(v, x.s.dim(k)), k, bytes, data)
}

func (x *exchange) receive(to topology.NodeID, k int, data []float64) {
	if data == nil {
		data = noPayload
	}
	x.buf[int(to)*x.rounds+k] = data
	if k == x.round[to] {
		x.advance(to)
	}
}

func (x *exchange) advance(v topology.NodeID) {
	for {
		k := x.round[v]
		i := int(v)*x.rounds + k
		if x.buf[i] == nil {
			return
		}
		x.s.absorb(v, k, x.buf[i])
		x.buf[i] = nil
		x.round[v]++
		if x.round[v] == x.rounds {
			x.e.finished(v, x.e.q.Now())
			return
		}
		x.start(v)
	}
}

// timedRounds is the payload-free exchangeSched of Barrier, AllGather and
// AllReduce: round k crosses dimension k with bytes bytes, doubled each
// round when doubling (the recursive-doubling all-gather).
type timedRounds struct {
	bytes    int
	doubling bool
}

func (r timedRounds) dim(k int) int { return k }

func (r timedRounds) outbound(_ topology.NodeID, k int) (int, []float64) {
	if r.doubling {
		return r.bytes << uint(k), nil
	}
	return r.bytes, nil
}

func (timedRounds) absorb(topology.NodeID, int, []float64) {}

// convergecast runs a tree upward: a node sends to its parent once it has
// absorbed all its children — a leaf at once — and the root finishes when
// it has absorbed its last child. The tree is a dense parent rule over
// machine addresses.
type convergecast struct {
	e    *engine
	root topology.NodeID
	node []treeNode  // by machine address
	acc  [][]float64 // by node: its accumulator; nil when timing-only
}

// treeNode is one node's entry in a convergecast's parent rule.
type treeNode struct {
	parent  topology.NodeID
	pending int // children not yet absorbed
	size    int // bytes of its message up
}

// newConvergecast declares an empty tree to root on e's substrate; the
// caller fills in the parent rule, the child counts and the sizes, then
// calls ready on the leaves.
func newConvergecast(e *engine, root topology.NodeID, tCompute event.Time) *convergecast {
	c := &convergecast{e: e, root: root, node: make([]treeNode, e.net.Cube().Nodes())}
	e.declare(c, tCompute, finishSender)
	return c
}

// ready ships node v's contribution to its parent, or finishes the root.
func (c *convergecast) ready(v topology.NodeID) {
	if v == c.root {
		c.e.finished(v, c.e.q.Now())
		return
	}
	var data []float64
	if c.acc != nil {
		data = c.e.pool.copyOf(c.acc[v])
	}
	c.e.send(v, c.node[v].parent, 0, c.node[v].size, data)
}

func (c *convergecast) receive(to topology.NodeID, _ int, data []float64) {
	if data != nil {
		seg := c.acc[to]
		for i, x := range data {
			seg[i] += x
		}
		c.e.pool.Recycle(data)
	}
	c.node[to].pending--
	if c.node[to].pending == 0 {
		c.ready(to)
	}
}

// binomialConvergecast launches a convergecast to root over the
// dimension-ascending binomial tree: root-relative node r's parent is r
// with its lowest set bit cleared, so r has lowBit(r) children and a
// subtree of 2^lowBit(r) nodes. A node's message is bytes long, times its
// subtree size when gather. Leaves start in ascending root-relative order.
func binomialConvergecast(e *engine, root topology.NodeID, bytes int, gather bool, acc [][]float64, tCompute event.Time) {
	cube := e.net.Cube()
	n := cube.Dim()
	c := newConvergecast(e, root, tCompute)
	c.acc = acc
	for r := topology.NodeID(0); int(r) < cube.Nodes(); r++ {
		kids := lowBit(r, n)
		size := bytes
		if gather {
			size <<= uint(kids)
		}
		c.node[absOf(cube, root, r)] = treeNode{absOf(cube, root, r&^(1<<uint(kids))), kids, size}
	}
	for r := topology.NodeID(0); int(r) < cube.Nodes(); r++ {
		if v := absOf(cube, root, r); c.node[v].pending == 0 {
			c.ready(v)
		}
	}
}

// scatter is the fan-out down the same binomial tree: a node holding the
// blocks of its 2^h-node subtree sends, per dimension d = h-1 down to 0,
// the 2^d blocks of the opposite half to its child across d, tagged d.
// The child's subtree then spans the dimensions below d, so receiving
// tag d and having sent tag d leave the same next send.
type scatter struct {
	e     *engine
	cube  topology.Cube
	root  topology.NodeID
	block int
}

func (s *scatter) receive(to topology.NodeID, d int, _ []float64) { s.next(to, d) }

func (s *scatter) next(v topology.NodeID, d int) {
	if d == 0 {
		return
	}
	d--
	child := absOf(s.cube, s.root, relOf(s.cube, s.root, v)|1<<uint(d))
	s.e.send(v, child, d, s.block<<uint(d), nil)
}

func checkBlock(blockBytes int) {
	if blockBytes < 0 {
		panic("collective: negative block size")
	}
}

// Scatter distributes a distinct blockBytes-sized block from root to every
// node using the dimension-descending binomial schedule: a holder of the
// blocks for a 2^h-node subcube forwards, per dimension d < h, the 2^d
// blocks of the opposite half to its dimension-d neighbor. Every message
// crosses one channel.
func Scatter(p ncube.Params, cube topology.Cube, root topology.NodeID, blockBytes int) Result {
	return *standalone(p, cube, func(sub Substrate) *Result { return ScatterOn(sub, root, blockBytes) })
}

// ScatterOn launches Scatter's schedule on a substrate at the calendar's
// current time; the caller drives the queue. The returned Result is
// filled in as the scenario runs.
func ScatterOn(sub Substrate, root topology.NodeID, blockBytes int) *Result {
	cube := sub.Net.Cube()
	cube.MustContain(root)
	checkBlock(blockBytes)
	e := newEngine(sub)
	s := &scatter{e: e, cube: cube, root: root, block: blockBytes}
	e.declare(s, 0, finishReceiver)
	e.finished(root, e.q.Now())
	s.next(root, cube.Dim())
	return e.res
}

// Gather is the inverse of Scatter: every node's block converges on root
// along the dimension-ascending binomial tree; a node at low-bit position
// L first absorbs its L children's accumulated blocks, then forwards
// 2^L blocks toward the root.
func Gather(p ncube.Params, cube topology.Cube, root topology.NodeID, blockBytes int) Result {
	return *standalone(p, cube, func(sub Substrate) *Result { return GatherOn(sub, root, blockBytes) })
}

// GatherOn launches Gather's schedule on a substrate at the calendar's
// current time; the caller drives the queue.
func GatherOn(sub Substrate, root topology.NodeID, blockBytes int) *Result {
	sub.Net.Cube().MustContain(root)
	checkBlock(blockBytes)
	return convergeOn(sub, root, blockBytes, true, 0)
}

// Reduce performs an all-to-one reduction: partial results of a fixed
// bytes size flow up the same tree as Gather, and each node spends
// tCompute combining each arriving child contribution.
func Reduce(p ncube.Params, cube topology.Cube, root topology.NodeID, bytes int, tCompute event.Time) Result {
	cube.MustContain(root)
	if bytes < 0 || tCompute < 0 {
		panic("collective: negative reduce parameter")
	}
	return *standalone(p, cube, func(sub Substrate) *Result { return convergeOn(sub, root, bytes, false, tCompute) })
}

// convergeOn launches a timing-only binomial convergecast on sub.
func convergeOn(sub Substrate, root topology.NodeID, bytes int, gather bool, tCompute event.Time) *Result {
	e := newEngine(sub)
	binomialConvergecast(e, root, bytes, gather, nil, tCompute)
	return e.res
}

// Barrier runs the dissemination barrier: in round k every node notifies
// its dimension-k neighbor and proceeds once it has received that round's
// notification, completing after n rounds. Notifications are 8-byte
// messages.
func Barrier(p ncube.Params, cube topology.Cube) Result {
	const noteBytes = 8
	return *standalone(p, cube, func(sub Substrate) *Result { return roundsOn(sub, timedRounds{bytes: noteBytes}, 0) })
}

// AllGather performs the recursive-doubling all-gather: in round d every
// node exchanges its accumulated 2^d blocks with its dimension-d neighbor,
// finishing with all N blocks everywhere.
func AllGather(p ncube.Params, cube topology.Cube, blockBytes int) Result {
	return *standalone(p, cube, func(sub Substrate) *Result { return AllGatherOn(sub, blockBytes) })
}

// AllGatherOn launches AllGather's schedule on a substrate at the
// calendar's current time; the caller drives the queue.
func AllGatherOn(sub Substrate, blockBytes int) *Result {
	checkBlock(blockBytes)
	return roundsOn(sub, timedRounds{bytes: blockBytes, doubling: true}, 0)
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
	return *standalone(p, cube, func(sub Substrate) *Result { return roundsOn(sub, timedRounds{bytes: bytes}, tCompute) })
}

// roundsOn launches a timing-only round exchange on sub.
func roundsOn(sub Substrate, r timedRounds, tCompute event.Time) *Result {
	e := newEngine(sub)
	exchangeOn(e, sub.Net.Cube().Dim(), r, tCompute)
	return e.res
}

// check that a run left no one behind.
func (r Result) complete(nodes int) error {
	if len(r.Finish) != nodes {
		return fmt.Errorf("collective: %d of %d nodes finished", len(r.Finish), nodes)
	}
	return nil
}
