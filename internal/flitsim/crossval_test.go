package flitsim

// Cross-validation of the two network models, in the spirit of the
// paper's "MultiSim has been validated against an nCUBE-2": the
// message-level model (internal/wormhole, used for all delay experiments)
// must agree with this flit-level model exactly in the absence of
// contention, and within the release-time slack (<= hops+1 cycles) under
// contention.

import (
	"fmt"
	"math/rand"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/wormhole"
)

// one simulated cycle == one nanosecond of the message-level model.
const cyc = event.Time(1)

// eachTrial runs trials as subtests, each with its own RNG seeded from
// base+trial — the draws of every trial are independent of execution
// order, so the suite is deterministic under `go test -shuffle=on`.
func eachTrial(t *testing.T, base int64, trials int, f func(t *testing.T, rng *rand.Rand)) {
	t.Helper()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(base + int64(trial)))
		t.Run(fmt.Sprintf("trial%03d", trial), func(t *testing.T) { f(t, rng) })
	}
}

// Message-level and flit-level uncontended unicast latencies are equal.
func TestCrossUncontendedUnicasts(t *testing.T) {
	cube := topology.New(6, topology.HighToLow)
	eachTrial(t, 2300, 200, func(t *testing.T, rng *rand.Rand) {
		from := topology.NodeID(rng.Intn(64))
		to := topology.NodeID(rng.Intn(64))
		if from == to {
			t.Skip("degenerate pair")
		}
		flits := 1 + rng.Intn(500)

		q := &event.Queue{}
		wnet := wormhole.New(q, cube, wormhole.Config{THop: cyc, TByte: cyc})
		var wArr event.Time
		wnet.Send(from, to, flits, func(d wormhole.Delivery) { wArr = d.Arrived })
		q.MustRun(0, 0)

		fnet := New(cube, Config{BufFlits: 2})
		m := fnet.Send(from, to, flits, 0)
		fnet.Run()

		if int64(wArr) != m.DeliveredAt {
			t.Fatalf("%v->%v L=%d: message-level %d, flit-level %d",
				from, to, flits, wArr, m.DeliveredAt)
		}
	})
}

// Under same-channel contention the message-level model is conservative:
// it releases channels only when the tail reaches the destination, so its
// delays exceed the flit-level model's by at most (hops of the first
// message) + 1 handoff cycle per queued predecessor.
func TestCrossContendedPairsBounded(t *testing.T) {
	cube := topology.New(5, topology.HighToLow)
	eachTrial(t, 2900, 150, func(t *testing.T, rng *rand.Rand) {
		src := topology.NodeID(rng.Intn(32))
		a := topology.NodeID(rng.Intn(32))
		b := topology.NodeID(rng.Intn(32))
		if a == src || b == src || a == b {
			t.Skip("degenerate triple")
		}
		if cube.FirstHop(src, a) != cube.FirstHop(src, b) {
			t.Skip("want guaranteed shared first channel")
		}
		flits := 50 + rng.Intn(200)

		q := &event.Queue{}
		wnet := wormhole.New(q, cube, wormhole.Config{THop: cyc, TByte: cyc})
		arr := map[topology.NodeID]event.Time{}
		rec := func(d wormhole.Delivery) { arr[d.To] = d.Arrived }
		wnet.Send(src, a, flits, rec)
		wnet.Send(src, b, flits, rec)
		q.MustRun(0, 0)

		fnet := New(cube, Config{BufFlits: 2})
		ma := fnet.Send(src, a, flits, 0)
		mb := fnet.Send(src, b, flits, 0)
		fnet.Run()

		slack := int64(topology.Distance(src, a) + topology.Distance(src, b) + 2)
		for _, pair := range []struct {
			w event.Time
			f *Message
		}{{arr[a], ma}, {arr[b], mb}} {
			diff := int64(pair.w) - pair.f.DeliveredAt
			if diff < 0 || diff > slack {
				t.Fatalf("src=%v a=%v b=%v L=%d: message-level %d, flit-level %d (slack %d)",
					src, a, b, flits, pair.w, pair.f.DeliveredAt, slack)
			}
		}
	})
}

// flitTree executes a multicast tree at flit level with the same software
// model as ncube.Run (serial startup S per send, receive overhead R),
// using fixed-point iteration over injection times. For contention-free
// trees each message's delivery depends only on its own start, so the
// iteration converges within tree-depth rounds.
func flitTree(cube topology.Cube, tr *core.Tree, flits int, S, R int64) map[topology.NodeID]int64 {
	sends := tr.Unicasts()
	starts := make([]int64, len(sends))
	var delivered map[topology.NodeID]int64
	for iter := 0; iter < 20; iter++ {
		fnet := New(cube, Config{BufFlits: 2})
		msgs := make([]*Message, len(sends))
		for i, s := range sends {
			msgs[i] = fnet.Send(s.From, s.To, flits, starts[i])
		}
		fnet.Run()
		delivered = map[topology.NodeID]int64{}
		for i, s := range sends {
			delivered[s.To] = msgs[i].DeliveredAt
			_ = i
		}
		next := make([]int64, len(sends))
		// Recompute injection times: node v's k-th send starts at
		// ready(v) + k*S, ready(source)=0, ready(v)=delivered(v)+R.
		idx := 0
		changed := false
		for i, v := range tr.Order {
			ready := int64(0)
			if v != tr.Source {
				ready = delivered[v] + R
			}
			for k := range tr.Sends[i] {
				next[idx] = ready + int64(k+1)*S
				if next[idx] != starts[idx] {
					changed = true
				}
				idx++
			}
		}
		starts = next
		if !changed {
			break
		}
	}
	return delivered
}

// A whole W-sort multicast agrees exactly between the two stacks: the
// flit-level execution with the software model reproduces ncube.Run's
// per-destination receipt times, cycle for cycle.
func TestCrossWSortTreeExact(t *testing.T) {
	cube := topology.New(5, topology.HighToLow)
	const S, R = 30, 15 // software costs in cycles
	params := ncube.Params{
		TStartup: event.Time(S), TRecv: event.Time(R),
		THop: cyc, TByte: cyc, Port: core.AllPort,
	}
	eachTrial(t, 3100, 25, func(t *testing.T, rng *rand.Rand) {
		src := topology.NodeID(rng.Intn(32))
		m := 1 + rng.Intn(31)
		perm := rng.Perm(32)
		var dests []topology.NodeID
		for _, p := range perm {
			if topology.NodeID(p) != src && len(dests) < m {
				dests = append(dests, topology.NodeID(p))
			}
		}
		for _, a := range []core.Algorithm{core.Maxport, core.WSort} {
			tr := core.Build(cube, a, src, dests)
			want := ncube.Run(params, tr, 120)
			got := flitTree(cube, tr, 120, S, R)
			for _, d := range dests {
				w := int64(want.Recv[d])
				if got[d] != w {
					t.Fatalf("%v: dest %v flit-level %d, message-level %d (src=%v dests=%v)",
						a, d, got[d], w, src, dests)
				}
			}
		}
	})
}

// At flit granularity, W-sort and Maxport multicasts never block a header
// — Theorem 6 all the way down.
func TestCrossContentionFreeAtFlitLevel(t *testing.T) {
	cube := topology.New(6, topology.HighToLow)
	eachTrial(t, 3700, 30, func(t *testing.T, rng *rand.Rand) {
		src := topology.NodeID(rng.Intn(64))
		m := 1 + rng.Intn(63)
		perm := rng.Perm(64)
		var dests []topology.NodeID
		for _, p := range perm {
			if topology.NodeID(p) != src && len(dests) < m {
				dests = append(dests, topology.NodeID(p))
			}
		}
		for _, a := range []core.Algorithm{core.Maxport, core.WSort} {
			tr := core.Build(cube, a, src, dests)
			got := flitTree(cube, tr, 64, 10, 5)
			fnet := New(cube, Config{BufFlits: 1})
			// Re-run once more at the converged starts to read
			// blocking: rebuild explicitly.
			sends := tr.Unicasts()
			msgs := make([]*Message, len(sends))
			starts := convergedStarts(tr, got, 10, 5)
			for i, s := range sends {
				msgs[i] = fnet.Send(s.From, s.To, 64, starts[i])
			}
			fnet.Run()
			if fnet.TotalBlocked() != 0 {
				t.Fatalf("%v blocked %d cycles at flit level (src=%v dests=%v)",
					a, fnet.TotalBlocked(), src, dests)
			}
		}
	})
}

func convergedStarts(tr *core.Tree, delivered map[topology.NodeID]int64, S, R int64) []int64 {
	var starts []int64
	for i, v := range tr.Order {
		ready := int64(0)
		if v != tr.Source {
			ready = delivered[v] + R
		}
		for k := range tr.Sends[i] {
			starts = append(starts, ready+int64(k+1)*S)
		}
	}
	return starts
}
