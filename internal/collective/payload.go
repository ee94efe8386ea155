// Data-carrying reduction collectives: the schedules here move real
// per-node vectors through the simulated network, not just byte counts.
// Payloads ride in the executor's message records (pool.go) beside their
// byte counts — the wormhole model only ever sees message sizes — so a
// data-carrying execution produces exactly the event schedule of the
// timing-only declaration with the same sizes, while the final per-node
// vectors expose any block delivered to the wrong node at the wrong
// round. Every standalone entry point verifies its result against the
// closed-form expectation (Expected*) element by element before
// returning, and leaves its input untouched; substrate launches take
// ownership of their input, reduce it in place and leave verification to
// the caller, who computes the expectation before the launch.
//
// Arithmetic note: verification demands exact float64 equality, which
// holds regardless of combine order whenever the inputs are integer-valued
// and the totals stay below 2^53 — the contract RandomData supplies.
package collective

import (
	"fmt"

	"hypercube/internal/event"
	"hypercube/internal/lazyrand"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
)

// ElemBytes is the wire size charged per payload vector element.
const ElemBytes = 8

// DataResult couples a collective's timing Result with the final per-node
// payload vectors the schedule delivered. Data[v] is node v's local vector
// when the operation completed: its own reduced block for ReduceScatter,
// the full reduced vector for the allreduce variants and (at the root) for
// ReduceData, and the gathered permutation for AllToAll.
type DataResult struct {
	Result
	Data [][]float64
}

// RandomData draws integer-valued per-node vectors deterministically from
// seed: nodes vectors of elems elements each, values in [-512, 512). With
// integer values, float64 sums are exact independent of association order
// until 2^53 — so a verified result never depends on the schedule's
// combine order. The vectors share one backing array, each capped at its
// own length.
func RandomData(seed int64, nodes, elems int) [][]float64 {
	return fillRandom(make([]float64, nodes*elems), seed, nodes, elems)
}

// RandomData is the package-level RandomData drawn into one block of the
// pool, whatever it held before: the same vectors, as views of block. The
// caller owns block and may hand it back with Recycle once nothing reads
// the vectors any more.
func (p *Pool) RandomData(seed int64, nodes, elems int) (in [][]float64, block []float64) {
	block = p.block(nodes * elems)
	return fillRandom(block, seed, nodes, elems), block
}

// fillRandom overwrites flat with RandomData's draw, element i being the
// i-th value of lazyrand.New(seed).Intn(1024) − 512, and returns its
// per-node views.
func fillRandom(flat []float64, seed int64, nodes, elems int) [][]float64 {
	lazyrand.FillIntn(flat, seed, 1024, -512)
	out := make([][]float64, nodes)
	for v := range out {
		out[v] = flat[v*elems : (v+1)*elems : (v+1)*elems]
	}
	return out
}

// blockOf validates a block-structured input — one vector per node, all of
// equal length N*b for some block size b >= 1 — and returns b. The
// block-partitioned collectives (ReduceScatter, AllReduce, AllToAll)
// panic through here on malformed input, like the timing-only entry
// points do on malformed parameters.
func blockOf(cube topology.Cube, in [][]float64) int {
	n := cube.Nodes()
	if len(in) != n {
		panic(fmt.Sprintf("collective: %d input vectors for a %d-node cube", len(in), n))
	}
	l := len(in[0])
	if l == 0 || l%n != 0 {
		panic(fmt.Sprintf("collective: vector length %d not a positive multiple of %d nodes", l, n))
	}
	for v := range in {
		if len(in[v]) != l {
			panic(fmt.Sprintf("collective: node %d vector length %d != %d", v, len(in[v]), l))
		}
	}
	return l / n
}

// uniformLen validates a shape-free input (ReduceData): one vector per
// node, all the same nonzero length, returned.
func uniformLen(cube topology.Cube, in [][]float64) int {
	n := cube.Nodes()
	if len(in) != n {
		panic(fmt.Sprintf("collective: %d input vectors for a %d-node cube", len(in), n))
	}
	l := len(in[0])
	if l == 0 {
		panic("collective: empty input vectors")
	}
	for v := range in {
		if len(in[v]) != l {
			panic(fmt.Sprintf("collective: node %d vector length %d != %d", v, len(in[v]), l))
		}
	}
	return l
}

// copyVecs copies equal-length vectors into one backing array, each copy
// capped at its own length.
func copyVecs(in [][]float64) [][]float64 {
	l := len(in[0])
	flat := make([]float64, 0, len(in)*l)
	out := make([][]float64, len(in))
	for v := range in {
		flat = append(flat, in[v]...)
		out[v] = flat[v*l : (v+1)*l : (v+1)*l]
	}
	return out
}

// columnSum is the elementwise sum over all nodes' vectors.
func columnSum(in [][]float64) []float64 {
	sum := append([]float64(nil), in[0]...)
	for v := 1; v < len(in); v++ {
		for i, x := range in[v] {
			sum[i] += x
		}
	}
	return sum
}

// ExpectedAllReduce returns the analytic allreduce expectation: every node
// ends with the elementwise sum of all inputs. The rows all alias one sum
// vector.
func ExpectedAllReduce(in [][]float64) [][]float64 {
	sum := columnSum(in)
	out := make([][]float64, len(in))
	for v := range out {
		out[v] = sum
	}
	return out
}

// ExpectedReduceScatter returns the analytic reduce-scatter expectation:
// node v ends with block v of the elementwise sum. The rows are views of
// one sum vector.
func ExpectedReduceScatter(in [][]float64) [][]float64 {
	sum := columnSum(in)
	b := len(sum) / len(in)
	out := make([][]float64, len(in))
	for v := range out {
		out[v] = sum[v*b : (v+1)*b : (v+1)*b]
	}
	return out
}

// ExpectedAllToAll returns the analytic all-to-all expectation: slot s of
// node v's result is block v of node s's input (the transpose of the
// block matrix).
func ExpectedAllToAll(in [][]float64) [][]float64 {
	n := len(in)
	b := len(in[0]) / n
	out := make([][]float64, n)
	for v := range out {
		vec := make([]float64, 0, n*b)
		for s := 0; s < n; s++ {
			vec = append(vec, in[s][v*b:(v+1)*b]...)
		}
		out[v] = vec
	}
	return out
}

// VerifyData compares delivered per-node vectors against an expectation
// element by element (exact equality) and names the first divergence.
func VerifyData(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("collective: %d result vectors, want %d", len(got), len(want))
	}
	for v := range want {
		if len(got[v]) != len(want[v]) {
			return fmt.Errorf("collective: node %d result length %d, want %d", v, len(got[v]), len(want[v]))
		}
		for i := range want[v] {
			if got[v][i] != want[v][i] {
				return fmt.Errorf("collective: node %d element %d: got %v, want %v", v, i, got[v][i], want[v][i])
			}
		}
	}
	return nil
}

// attachData reroutes the engine's result into a DataResult and installs a
// completion hook that captures the final per-node vectors at the instant
// the last node finishes — before the substrate's OnDone observes the
// result, so a traffic-engine callback can already read Data.
func attachData(e *engine, capture func() [][]float64) *DataResult {
	dr := &DataResult{Result: *e.res}
	e.res = &dr.Result
	user := e.onDone
	e.onDone = func(r Result) {
		dr.Data = capture()
		if user != nil {
			user(r)
		}
	}
	return dr
}

// runData runs a data schedule's launch standalone on a copy of in (the
// schedules reduce in place) and verifies the result against want, which
// the caller computed from in before the launch. The caller's vectors are
// never touched.
func runData(p ncube.Params, cube topology.Cube, in, want [][]float64,
	launch func(sub Substrate, work [][]float64) *DataResult) (DataResult, error) {
	work := copyVecs(in)
	dr := standalone(p, cube, func(sub Substrate) *DataResult { return launch(sub, work) })
	return *dr, VerifyData(dr.Data, want)
}

// ownedRange returns the contiguous block range [lo, hi) whose indices
// agree with v on every dimension >= d — the blocks v is responsible for
// after the recursive-halving rounds above d have run.
func ownedRange(v topology.NodeID, d int) (lo, hi int) {
	lo = (int(v) >> uint(d)) << uint(d)
	return lo, lo + 1<<uint(d)
}

// halvingDoubling is the exchangeSched of halvingDoublingOn. In halving
// round k < n the exchange crosses dimension n-1-k: each node ships its
// partner's half of its active block range and folds the received half
// into its own; after n rounds node v holds block v of the total. The
// doubling rounds k >= n cross dimensions 0..n-1, copying the
// fully-reduced ranges back out until every node holds the whole sum.
type halvingDoubling struct {
	cube topology.Cube
	pool *Pool
	work [][]float64 // the nodes' vectors, reduced in place
	b, n int         // block size; cube dimension
}

func (h *halvingDoubling) dim(k int) int {
	if k < h.n {
		return h.n - 1 - k
	}
	return k - h.n
}

func (h *halvingDoubling) outbound(v topology.NodeID, k int) (int, []float64) {
	d := h.dim(k)
	var lo, hi int
	if k < h.n {
		lo, hi = ownedRange(h.cube.Neighbor(v, d), d) // partner's half
	} else {
		lo, hi = ownedRange(v, d) // v's fully-reduced range
	}
	return (hi - lo) * h.b * ElemBytes, h.pool.copyOf(h.work[v][lo*h.b : hi*h.b])
}

func (h *halvingDoubling) absorb(v topology.NodeID, k int, data []float64) {
	d := h.dim(k)
	if k < h.n {
		lo, _ := ownedRange(v, d)
		seg := h.work[v][lo*h.b : lo*h.b+len(data)]
		for i, x := range data {
			seg[i] += x
		}
	} else {
		lo, _ := ownedRange(h.cube.Neighbor(v, d), d)
		copy(h.work[v][lo*h.b:lo*h.b+len(data)], data)
	}
	h.pool.Recycle(data)
}

// halvingDoublingOn launches the recursive-halving reduce-scatter —
// followed, unless scatterOnly, by the recursive-doubling allgather of the
// reduced blocks (the bandwidth-optimal halving+doubling allreduce). It
// takes ownership of in and reduces it in place: Data is in itself, or for
// scatterOnly each node's view of its own block.
func halvingDoublingOn(sub Substrate, in [][]float64, tCompute event.Time, scatterOnly bool) *DataResult {
	cube := sub.Net.Cube()
	e := newEngine(sub)
	h := &halvingDoubling{cube: cube, pool: e.pool, work: in, b: blockOf(cube, in), n: cube.Dim()}
	capture := func() [][]float64 {
		if !scatterOnly {
			return in
		}
		out := make([][]float64, len(in))
		for v := range in {
			out[v] = in[v][v*h.b : (v+1)*h.b]
		}
		return out
	}
	dr := attachData(e, capture)
	rounds := 2 * h.n
	if scatterOnly {
		rounds = h.n
	}
	exchangeOn(e, rounds, h, tCompute)
	return dr
}

// ReduceScatter reduces the nodes' equal-length vectors elementwise and
// leaves block v of the total at node v, via the recursive-halving
// schedule (n rounds, dimension-descending, each message one channel).
// The input is one vector per node, every vector N*b elements, and is
// left untouched; the result is verified against ExpectedReduceScatter
// before returning.
func ReduceScatter(p ncube.Params, cube topology.Cube, in [][]float64, tCompute event.Time) (DataResult, error) {
	blockOf(cube, in)
	return runData(p, cube, in, ExpectedReduceScatter(in), func(sub Substrate, work [][]float64) *DataResult {
		return ReduceScatterOn(sub, work, tCompute)
	})
}

// ReduceScatterOn launches ReduceScatter's schedule on a substrate at the
// calendar's current time; the caller drives the queue and — since it
// holds the inputs — verifies Data against ExpectedReduceScatter,
// computed before the launch: the schedule takes ownership of in and
// reduces it in place, and Data[v] is a view of in[v].
func ReduceScatterOn(sub Substrate, in [][]float64, tCompute event.Time) *DataResult {
	if tCompute < 0 {
		panic("collective: negative reduce-scatter compute time")
	}
	return halvingDoublingOn(sub, in, tCompute, true)
}

// AllReduceHD is the data-carrying halving+doubling allreduce: a
// recursive-halving reduce-scatter followed by a recursive-doubling
// allgather of the reduced blocks — 2n rounds moving 2(N-1)/N of the
// vector per node, the bandwidth-optimal hypercube schedule. Every node
// ends with the elementwise total, verified before returning; in is left
// untouched.
func AllReduceHD(p ncube.Params, cube topology.Cube, in [][]float64, tCompute event.Time) (DataResult, error) {
	blockOf(cube, in)
	return runData(p, cube, in, ExpectedAllReduce(in), func(sub Substrate, work [][]float64) *DataResult {
		return AllReduceHDOn(sub, work, tCompute)
	})
}

// AllReduceHDOn launches AllReduceHD's schedule on a substrate; the
// caller drives the queue and verifies Data against ExpectedAllReduce,
// computed before the launch: the schedule takes ownership of in, reduces
// it in place and returns it as Data.
func AllReduceHDOn(sub Substrate, in [][]float64, tCompute event.Time) *DataResult {
	if tCompute < 0 {
		panic("collective: negative allreduce compute time")
	}
	return halvingDoublingOn(sub, in, tCompute, false)
}

// ringAllReduce is AllReduceRingOn's schedule: the Gray-code ring's own
// receive rule, on the one executor.
type ringAllReduce struct {
	e        *engine
	work     [][]float64 // the nodes' vectors, reduced in place
	b, nodes int
	steps    int
	order    []topology.NodeID // ring position -> node (Gray code)
	pos      []int             // node -> ring position
	stash    [][]float64       // stash[v*steps+s]: node v's step-s receipt until absorbed
	expect   []int             // per node, the next step to absorb
}

// mod reduces a ring position, possibly negative, modulo the node count,
// a power of two.
func (r *ringAllReduce) mod(x int) int { return x & (r.nodes - 1) }

// chunkSent is the chunk ring position p ships at step s.
func (r *ringAllReduce) chunkSent(p, s int) int {
	if s < r.nodes-1 {
		return r.mod(p - s)
	}
	return r.mod(p + 1 - (s - (r.nodes - 1)))
}

func (r *ringAllReduce) send(v topology.NodeID, s int) {
	p := r.pos[v]
	c := r.chunkSent(p, s)
	payload := r.e.pool.copyOf(r.work[v][c*r.b : (c+1)*r.b])
	r.e.send(v, r.order[r.mod(p+1)], s, len(payload)*ElemBytes, payload)
}

func (r *ringAllReduce) receive(to topology.NodeID, s int, data []float64) {
	r.stash[int(to)*r.steps+s] = data
	for r.expect[to] < r.steps {
		i := int(to)*r.steps + r.expect[to]
		data := r.stash[i]
		if data == nil {
			return
		}
		r.stash[i] = nil
		r.expect[to]++
		r.absorb(to, r.expect[to]-1, data)
	}
}

func (r *ringAllReduce) absorb(v topology.NodeID, s int, data []float64) {
	c := r.chunkSent(r.mod(r.pos[v]-1), s) // what the predecessor shipped
	seg := r.work[v][c*r.b : (c+1)*r.b]
	if s < r.nodes-1 {
		for i, x := range data {
			seg[i] += x
		}
	} else {
		copy(seg, data)
	}
	r.e.pool.Recycle(data)
	if s+1 < r.steps {
		r.send(v, s+1)
	}
	if s == r.steps-1 {
		r.e.finished(v, r.e.q.Now())
	}
}

// AllReduceRing is the data-carrying ring allreduce on the Gray-code
// Hamiltonian cycle: bandwidth-identical to halving+doubling (2(N-1)
// single-block steps per node) but latency-heavier — the classic
// large-vector gradient-aggregation schedule. Verified before returning;
// in is left untouched.
func AllReduceRing(p ncube.Params, cube topology.Cube, in [][]float64, tCompute event.Time) (DataResult, error) {
	blockOf(cube, in)
	return runData(p, cube, in, ExpectedAllReduce(in), func(sub Substrate, work [][]float64) *DataResult {
		return AllReduceRingOn(sub, work, tCompute)
	})
}

// AllReduceRingOn launches the ring allreduce on the binary-reflected
// Gray-code Hamiltonian cycle of the cube (consecutive ring positions are
// hypercube neighbors, so every hand-off crosses one channel). Each node
// pipelines 2(N-1) single-block steps: N-1 reduce-scatter steps, in which
// step s moves chunk (p-s) mod N from ring position p to p+1 and the
// receiver folds in its contribution, then N-1 allgather steps
// circulating the finished chunks. A node issues step s+1 as soon as it
// has absorbed step s from its predecessor, so the pipeline keeps every
// ring link busy. The caller drives the queue and verifies Data against
// ExpectedAllReduce, computed before the launch: the schedule takes
// ownership of in, reduces it in place and returns it as Data.
func AllReduceRingOn(sub Substrate, in [][]float64, tCompute event.Time) *DataResult {
	if tCompute < 0 {
		panic("collective: negative allreduce compute time")
	}
	cube := sub.Net.Cube()
	b := blockOf(cube, in)
	e := newEngine(sub)
	dr := attachData(e, func() [][]float64 { return in })
	nodes := cube.Nodes()
	if nodes == 1 {
		e.finished(0, e.q.Now())
		return dr
	}
	steps := 2 * (nodes - 1)
	r := &ringAllReduce{
		e: e, work: in, b: b, nodes: nodes, steps: steps,
		order:  make([]topology.NodeID, nodes),
		pos:    make([]int, nodes),
		stash:  make([][]float64, nodes*steps),
		expect: make([]int, nodes),
	}
	e.declare(r, tCompute, finishNone)
	for i := 0; i < nodes; i++ {
		g := topology.NodeID(i ^ (i >> 1))
		r.order[i] = g
		r.pos[g] = i
	}
	for v := 0; v < nodes; v++ {
		r.send(topology.NodeID(v), 0)
	}
	return dr
}

// allToAll is the exchangeSched of AllToAllOn. Node v holds N blocks at
// all times, one per slot: block (s, t) — source s's block for
// destination t — sits in slot s^t. Before round k, v holds exactly the
// blocks whose destination agrees with v below bit k and whose source
// agrees with v at bit k and above, and that makes the slot a one-to-one
// index. Round k ships the blocks whose destination differs from v in bit
// k, which are exactly the slots with bit k set, and the partner's blocks
// arrive for the same slots, so a payload is the slots with bit k set in
// ascending order and the receiver needs no per-block tags.
type allToAll struct {
	pool     *Pool
	work     [][]float64 // the nodes' input vectors, owned
	b, nodes int
	n        int         // cube dimension
	held     [][]float64 // held[v*nodes+x]: node v's block in slot x (a view)
	rx       [][]float64 // rx[v*n+k]: node v's round-k payload, which held views
}

func (a *allToAll) dim(k int) int { return k }

func (a *allToAll) outbound(v topology.NodeID, k int) (int, []float64) {
	payload := a.pool.block(a.nodes / 2 * a.b)
	held := a.held[int(v)*a.nodes:]
	i := 0
	for x := 1 << uint(k); x < a.nodes; x = (x + 1) | 1<<uint(k) {
		copy(payload[i*a.b:], held[x])
		i++
	}
	return len(payload) * ElemBytes, payload
}

func (a *allToAll) absorb(v topology.NodeID, k int, data []float64) {
	held := a.held[int(v)*a.nodes:]
	i := 0
	for x := 1 << uint(k); x < a.nodes; x = (x + 1) | 1<<uint(k) {
		held[x] = data[i*a.b : (i+1)*a.b : (i+1)*a.b]
		i++
	}
	a.rx[int(v)*a.n+k] = data
}

// result assembles node v's gathered vector in place in its input vector,
// whose only live block by now is v's own block to itself, already at
// slot v of the result, and recycles the payloads the views pointed into.
func (a *allToAll) result() [][]float64 {
	for v := 0; v < a.nodes; v++ {
		out, held := a.work[v], a.held[v*a.nodes:]
		for s := 0; s < a.nodes; s++ {
			if s != v {
				copy(out[s*a.b:(s+1)*a.b], held[s^v])
			}
		}
	}
	for _, data := range a.rx {
		a.pool.Recycle(data)
	}
	return a.work
}

// AllToAll performs the complete block exchange — node v's input block t
// ends as slot v of node t's result — via the pairwise-exchange schedule
// (n rounds, N/2 blocks per message, each message one channel). Verified
// against ExpectedAllToAll before returning; in is left untouched.
func AllToAll(p ncube.Params, cube topology.Cube, in [][]float64) (DataResult, error) {
	blockOf(cube, in)
	return runData(p, cube, in, ExpectedAllToAll(in), AllToAllOn)
}

// AllToAllOn launches the pairwise-exchange (XOR) all-to-all: n rounds,
// one per dimension ascending, each node exchanging the N/2 blocks whose
// destination lies across the current dimension. Blocks hop between
// partners until destination bits are satisfied dimension by dimension;
// after round n-1 node v holds exactly the blocks addressed to it, one
// from every source. The caller drives the queue and verifies Data
// against ExpectedAllToAll, computed before the launch: the schedule
// takes ownership of in and returns the gathered vectors in its storage
// as Data.
func AllToAllOn(sub Substrate, in [][]float64) *DataResult {
	cube := sub.Net.Cube()
	b := blockOf(cube, in)
	nodes, n := cube.Nodes(), cube.Dim()
	e := newEngine(sub)
	a := &allToAll{
		pool: e.pool, work: in, b: b, nodes: nodes, n: n,
		held: make([][]float64, nodes*nodes),
		rx:   make([][]float64, nodes*n),
	}
	for v := 0; v < nodes; v++ {
		for t := 0; t < nodes; t++ {
			a.held[v*nodes+(v^t)] = in[v][t*b : (t+1)*b : (t+1)*b]
		}
	}
	dr := attachData(e, a.result)
	exchangeOn(e, n, a, 0)
	return dr
}

// ReduceData is the payload-carrying Reduce: the root ends with the
// elementwise sum of every node's vector (Data[root]; other nodes keep
// their partial accumulators). The root's vector is verified against the
// column sum before returning; in is left untouched.
func ReduceData(p ncube.Params, cube topology.Cube, root topology.NodeID, in [][]float64, tCompute event.Time) (DataResult, error) {
	uniformLen(cube, in)
	want := columnSum(in)
	work := copyVecs(in)
	dr := standalone(p, cube, func(sub Substrate) *DataResult { return ReduceDataOn(sub, root, work, tCompute) })
	return *dr, VerifyData([][]float64{dr.Data[root]}, [][]float64{want})
}

// ReduceDataOn launches the payload-carrying all-to-one reduction:
// partial vectors converge on root up the dimension-ascending binomial
// tree (Reduce's exact schedule and message sizes), each hop shipping the
// sender's accumulated vector and each receipt charging TRecv + tCompute
// before folding into the local accumulator. The caller drives the queue
// and verifies Data[root] against the column sum, computed before the
// launch: the schedule takes ownership of in, accumulates in place and
// returns it as Data.
func ReduceDataOn(sub Substrate, root topology.NodeID, in [][]float64, tCompute event.Time) *DataResult {
	cube := sub.Net.Cube()
	cube.MustContain(root)
	if tCompute < 0 {
		panic("collective: negative reduce compute time")
	}
	l := uniformLen(cube, in)
	e := newEngine(sub)
	dr := attachData(e, func() [][]float64 { return in })
	binomialConvergecast(e, root, l*ElemBytes, false, in, tCompute)
	return dr
}
