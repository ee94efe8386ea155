package ncube

import (
	"math/rand"
	"testing"

	"hypercube/internal/bits"
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/topology"
)

func randomDests(rng *rand.Rand, n int, src topology.NodeID, m int) []topology.NodeID {
	perm := rng.Perm(bits.Pow2(n))
	out := make([]topology.NodeID, 0, m)
	for _, p := range perm {
		if topology.NodeID(p) == src {
			continue
		}
		out = append(out, topology.NodeID(p))
		if len(out) == m {
			break
		}
	}
	return out
}

// A single unicast's delay is TStartup + hops*THop + bytes*TByte.
func TestUnicastLatencyFormula(t *testing.T) {
	c := topology.New(5, topology.HighToLow)
	p := NCube2(core.AllPort)
	tr := core.Build(c, core.UCube, 0, []topology.NodeID{0b10110})
	res := Run(p, tr, 4096)
	want := p.TStartup + 3*p.THop + 4096*p.TByte
	got, ok := res.DelayOf(0b10110)
	if !ok || got != want {
		t.Errorf("delay = %v, want %v", got, want)
	}
	if res.Makespan != want {
		t.Errorf("makespan = %v", res.Makespan)
	}
	if res.TotalBlocked != 0 {
		t.Error("single unicast blocked")
	}
}

// The Figure 3 instance: W-sort completes far sooner than U-cube on the
// all-port machine, and both deliver to all eight destinations.
func TestFigure3MachineComparison(t *testing.T) {
	c := topology.New(4, topology.HighToLow)
	dests := []topology.NodeID{
		0b0001, 0b0011, 0b0101, 0b0111, 0b1011, 0b1100, 0b1110, 0b1111,
	}
	p := NCube2(core.AllPort)
	ws := Run(p, core.Build(c, core.WSort, 0, dests), 4096)
	uc := Run(p, core.Build(c, core.UCube, 0, dests), 4096)
	if len(ws.Recv) != 8 || len(uc.Recv) != 8 {
		t.Fatalf("receipt counts %d/%d", len(ws.Recv), len(uc.Recv))
	}
	if ws.Makespan >= uc.Makespan {
		t.Errorf("W-sort %v not faster than U-cube %v", ws.Makespan, uc.Makespan)
	}
	if ws.TotalBlocked != 0 {
		t.Errorf("W-sort blocked %v", ws.TotalBlocked)
	}
}

// Physical contention-freedom: Maxport and W-sort executions never block a
// header, on either resolution order — the machine-level counterpart of
// Theorem 6 (every send from a node uses a distinct channel, and
// cross-node paths are arc-disjoint).
func TestNewAlgorithmsNeverBlock(t *testing.T) {
	for _, res := range []topology.Resolution{topology.HighToLow, topology.LowToHigh} {
		c := topology.New(6, res)
		p := NCube2(core.AllPort)
		rng := rand.New(rand.NewSource(101))
		for trial := 0; trial < 60; trial++ {
			src := topology.NodeID(rng.Intn(64))
			dests := randomDests(rng, 6, src, 1+rng.Intn(63))
			for _, a := range []core.Algorithm{core.Maxport, core.WSort} {
				r := Run(p, core.Build(c, a, src, dests), 4096)
				if r.TotalBlocked != 0 {
					t.Fatalf("%v (%v) blocked %v: src=%v dests=%v",
						a, res, r.TotalBlocked, src, dests)
				}
			}
		}
	}
}

// Combine deliberately reuses an outgoing channel when the weight balance
// calls for it, so its later same-channel sends self-serialize behind the
// earlier ones (Theorem 3 territory: common-source unicasts are
// contention-free). Physical blocking must therefore occur only on trees
// where some node issues two sends with the same first hop — and must be
// absent whenever it does not.
func TestCombineBlocksOnlyOnChannelReuse(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	p := NCube2(core.AllPort)
	rng := rand.New(rand.NewSource(101))
	sawReuse := false
	for trial := 0; trial < 80; trial++ {
		src := topology.NodeID(rng.Intn(64))
		dests := randomDests(rng, 6, src, 1+rng.Intn(63))
		tr := core.Build(c, core.Combine, src, dests)
		reuse := false
		for i, sends := range tr.Sends {
			seen := map[int]bool{}
			for _, snd := range sends {
				d := c.FirstHop(tr.Order[i], snd.To)
				if seen[d] {
					reuse = true
				}
				seen[d] = true
			}
		}
		r := Run(p, tr, 4096)
		if !reuse && r.TotalBlocked != 0 {
			t.Fatalf("Combine blocked %v without channel reuse: src=%v dests=%v",
				r.TotalBlocked, src, dests)
		}
		sawReuse = sawReuse || reuse
	}
	if !sawReuse {
		t.Error("workload never exercised Combine's channel reuse")
	}
}

// U-cube one-port is contention-free as well (its design guarantee).
func TestUCubeOnePortNeverBlocks(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	p := NCube2(core.OnePort)
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 60; trial++ {
		src := topology.NodeID(rng.Intn(64))
		dests := randomDests(rng, 6, src, 1+rng.Intn(63))
		r := Run(p, core.Build(c, core.UCube, src, dests), 4096)
		if r.TotalBlocked != 0 {
			t.Fatalf("U-cube one-port blocked %v: src=%v dests=%v", r.TotalBlocked, src, dests)
		}
	}
}

// Every destination receives exactly once, for every algorithm and port
// model, on random workloads.
func TestDeliveryCompleteness(t *testing.T) {
	c := topology.New(5, topology.HighToLow)
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 40; trial++ {
		src := topology.NodeID(rng.Intn(32))
		dests := randomDests(rng, 5, src, 1+rng.Intn(31))
		for _, a := range core.Algorithms() {
			for _, pm := range []core.PortModel{core.OnePort, core.AllPort} {
				r := Run(NCube2(pm), core.Build(c, a, src, dests), 1024)
				for _, d := range dests {
					if _, ok := r.DelayOf(d); !ok {
						t.Fatalf("%v/%v: destination %v not delivered", a, pm, d)
					}
				}
				if _, ok := r.DelayOf(src); ok {
					t.Fatalf("%v/%v: source delivered to itself", a, pm)
				}
			}
		}
	}
}

// All-port beats (or ties) one-port for every algorithm on the same tree.
func TestAllPortDominatesOnePort(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 30; trial++ {
		src := topology.NodeID(rng.Intn(64))
		dests := randomDests(rng, 6, src, 1+rng.Intn(40))
		for _, a := range []core.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort} {
			tr := core.Build(c, a, src, dests)
			ap := Run(NCube2(core.AllPort), tr, 4096)
			op := Run(NCube2(core.OnePort), tr, 4096)
			if ap.Makespan > op.Makespan {
				t.Fatalf("%v: all-port %v slower than one-port %v", a, ap.Makespan, op.Makespan)
			}
		}
	}
}

// The U-cube serialization anomaly of Figure 11: on an all-port machine,
// U-cube's average multicast delay for some mid-size destination sets
// exceeds its broadcast (m = N-1) delay, because the tree forces multiple
// messages out the same channel. W-sort never shows the anomaly by more
// than measurement noise (its broadcast uses every channel evenly).
func TestUCubeMulticastWorseThanBroadcastAnomaly(t *testing.T) {
	c := topology.New(5, topology.HighToLow)
	p := NCube2(core.AllPort)
	var all []topology.NodeID
	for v := 1; v < c.Nodes(); v++ {
		all = append(all, topology.NodeID(v))
	}
	bres := Run(p, core.Build(c, core.UCube, 0, all), 4096)
	bavg, _ := bres.Stats(all)

	rng := rand.New(rand.NewSource(113))
	anomaly := false
	for trial := 0; trial < 50 && !anomaly; trial++ {
		dests := randomDests(rng, 5, 0, 16)
		r := Run(p, core.Build(c, core.UCube, 0, dests), 4096)
		avg, _ := r.Stats(dests)
		if avg > bavg {
			anomaly = true
		}
	}
	if !anomaly {
		t.Error("expected at least one destination set with average delay above broadcast")
	}
}

// Stats computes average and maximum receipt delays.
func TestStats(t *testing.T) {
	r := Result{Recv: map[topology.NodeID]event.Time{1: 100, 2: 300, 3: 200}}
	avg, max := r.Stats([]topology.NodeID{1, 2, 3})
	if avg != 200 || max != 300 {
		t.Errorf("avg=%v max=%v", avg, max)
	}
	if a, m := r.Stats(nil); a != 0 || m != 0 {
		t.Error("empty stats should be zero")
	}
}

func TestStatsPanicsOnMissing(t *testing.T) {
	r := Result{Recv: map[topology.NodeID]event.Time{}}
	defer func() {
		if recover() == nil {
			t.Error("missing destination did not panic")
		}
	}()
	r.Stats([]topology.NodeID{7})
}

func TestParamsValidate(t *testing.T) {
	bad := NCube2(core.AllPort)
	bad.TByte = -1
	defer func() {
		if recover() == nil {
			t.Error("negative params did not panic")
		}
	}()
	bad.Validate()
}

// Determinism: identical runs give identical results.
func TestRunDeterministic(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	rng := rand.New(rand.NewSource(127))
	src := topology.NodeID(3)
	dests := randomDests(rng, 6, src, 25)
	tr := core.Build(c, core.UCube, src, dests)
	a := Run(NCube2(core.AllPort), tr, 4096)
	b := Run(NCube2(core.AllPort), tr, 4096)
	if a.Makespan != b.Makespan || len(a.Recv) != len(b.Recv) {
		t.Fatal("nondeterministic run")
	}
	for v, t1 := range a.Recv {
		if b.Recv[v] != t1 {
			t.Fatalf("nondeterministic receipt for %v", v)
		}
	}
}

// For contention-free trees the event-driven simulator must match the
// closed-form recurrence exactly:
//
//	ready(source) = 0
//	inject(k-th send of v) = ready(v) + k*TStartup
//	arrive(child) = inject + hops*THop + bytes*TByte
//	ready(child)  = arrive(child) + TRecv
//
// This pins the whole machine model against an independent derivation.
func TestSimulatorMatchesClosedForm(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	p := NCube2(core.AllPort)
	rng := rand.New(rand.NewSource(229))
	for trial := 0; trial < 50; trial++ {
		src := topology.NodeID(rng.Intn(64))
		dests := randomDests(rng, 6, src, 1+rng.Intn(63))
		for _, a := range []core.Algorithm{core.Maxport, core.WSort} {
			tr := core.Build(c, a, src, dests)
			bytes := 512 + rng.Intn(8192)
			got := Run(p, tr, bytes)
			want := closedForm(tr, p, bytes)
			for v, w := range want {
				if got.Recv[v] != w {
					t.Fatalf("%v: node %v simulated %v, closed form %v (src=%v dests=%v bytes=%d)",
						a, v, got.Recv[v], w, src, dests, bytes)
				}
			}
		}
	}
}

// closedForm computes per-node arrival times assuming zero contention.
func closedForm(tr *core.Tree, p Params, bytes int) map[topology.NodeID]event.Time {
	arrive := map[topology.NodeID]event.Time{}
	ready := map[topology.NodeID]event.Time{tr.Source: 0}
	for i, v := range tr.Order {
		base, ok := ready[v]
		if !ok {
			base = arrive[v] + p.TRecv
		}
		for k, snd := range tr.Sends[i] {
			inject := base + event.Time(k+1)*p.TStartup
			hops := event.Time(topology.Distance(snd.From, snd.To))
			arrive[snd.To] = inject + hops*p.THop + event.Time(bytes)*p.TByte
		}
	}
	return arrive
}

// The one-port model has its own closed form: a node's k-th send sets up
// only after its (k-1)-th message fully drained (single DMA pair), so
//
//	inject_k = deliver_{k-1} + TStartup   (deliver_0 = ready)
//
// U-cube one-port executions are contention-free, so the simulator must
// match this recurrence exactly.
func TestOnePortSimulatorMatchesClosedForm(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	p := NCube2(core.OnePort)
	rng := rand.New(rand.NewSource(233))
	for trial := 0; trial < 40; trial++ {
		src := topology.NodeID(rng.Intn(64))
		dests := randomDests(rng, 6, src, 1+rng.Intn(63))
		tr := core.Build(c, core.UCube, src, dests)
		bytes := 256 + rng.Intn(4096)
		got := Run(p, tr, bytes)
		arrive := map[topology.NodeID]event.Time{}
		ready := map[topology.NodeID]event.Time{tr.Source: 0}
		for i, v := range tr.Order {
			base, ok := ready[v]
			if !ok {
				base = arrive[v] + p.TRecv
			}
			prev := base
			for _, snd := range tr.Sends[i] {
				inject := prev + p.TStartup
				hops := event.Time(topology.Distance(snd.From, snd.To))
				arrive[snd.To] = inject + hops*p.THop + event.Time(bytes)*p.TByte
				prev = arrive[snd.To]
			}
		}
		for v, w := range arrive {
			if got.Recv[v] != w {
				t.Fatalf("node %v simulated %v, closed form %v (src=%v)", v, got.Recv[v], w, src)
			}
		}
	}
}

// Larger messages increase delay linearly with the pipeline term.
func TestMessageSizeScaling(t *testing.T) {
	c := topology.New(4, topology.HighToLow)
	p := NCube2(core.AllPort)
	tr := core.Build(c, core.WSort, 0, []topology.NodeID{0b1111})
	small := Run(p, tr, 1024)
	large := Run(p, tr, 4096)
	diff := large.Makespan - small.Makespan
	if diff != event.Time(4096-1024)*p.TByte {
		t.Errorf("size scaling diff = %v", diff)
	}
}
