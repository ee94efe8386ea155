package core

import (
	"math/rand"
	"testing"

	"hypercube/internal/bits"
	"hypercube/internal/chain"
	"hypercube/internal/topology"
)

// randomDests draws m distinct destinations (excluding src) from an n-cube.
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

// Every algorithm must deliver to exactly the destination set (SFBinomial
// may add relays but must still cover all destinations), with each node
// receiving exactly once, and the tree must be well-formed.
func TestCoverageAllAlgorithms(t *testing.T) {
	for _, res := range []topology.Resolution{topology.HighToLow, topology.LowToHigh} {
		c := topology.New(6, res)
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 200; trial++ {
			src := topology.NodeID(rng.Intn(64))
			m := 1 + rng.Intn(63)
			dests := randomDests(rng, 6, src, m)
			for _, a := range Algorithms() {
				tr := Build(c, a, src, dests)
				tr.Validate()
				got := map[topology.NodeID]bool{}
				for _, v := range tr.Destinations() {
					got[v] = true
				}
				for _, d := range dests {
					if !got[d] {
						t.Fatalf("%v (%v): destination %v not covered (src=%v m=%d)", a, res, d, src, m)
					}
				}
				if a != SFBinomial {
					if len(got) != len(dests) {
						t.Fatalf("%v: reached %d nodes, want exactly %d", a, len(got), len(dests))
					}
				}
			}
		}
	}
}

// Validate enforces the slot invariant, not just coverage: each corruption
// below leaves the unicast set a valid tree but breaks Order.
func TestValidateRejectsBrokenSlots(t *testing.T) {
	c := topology.New(5, topology.HighToLow)
	dests := []topology.NodeID{1, 3, 5, 7, 11, 12, 14, 15, 20, 31}
	for _, tc := range []struct {
		name    string
		corrupt func(tr *Tree)
	}{
		{"receivers swapped", func(tr *Tree) {
			tr.Order[1], tr.Order[2] = tr.Order[2], tr.Order[1]
			tr.Sends[1], tr.Sends[2] = tr.Sends[2], tr.Sends[1]
		}},
		{"leaf dropped", func(tr *Tree) {
			tr.Order, tr.Sends = tr.Order[:len(tr.Order)-1], tr.Sends[:len(tr.Sends)-1]
		}},
		{"source not first", func(tr *Tree) { tr.Source = tr.Order[1] }},
		{"node listed twice", func(tr *Tree) { tr.Order[len(tr.Order)-1] = tr.Order[1] }},
		{"sends misaligned", func(tr *Tree) { tr.Sends = tr.Sends[1:] }},
	} {
		tr := Build(c, WSort, 0, dests)
		tr.Validate()
		tc.corrupt(tr)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Validate accepted the tree", tc.name)
				}
			}()
			tr.Validate()
		}()
	}
}

// The paper's central claim, Theorem 6: W-sort multicasts are
// contention-free. Maxport on a dimension-ordered chain likewise. Verified
// under the all-port schedule with the Definition 4 checker.
func TestMaxportWSortContentionFree(t *testing.T) {
	for _, res := range []topology.Resolution{topology.HighToLow, topology.LowToHigh} {
		c := topology.New(6, res)
		rng := rand.New(rand.NewSource(37))
		for trial := 0; trial < 300; trial++ {
			src := topology.NodeID(rng.Intn(64))
			m := 1 + rng.Intn(63)
			dests := randomDests(rng, 6, src, m)
			for _, a := range []Algorithm{Maxport, WSort} {
				s := NewSchedule(Build(c, a, src, dests), AllPort)
				if cs := CheckContention(s); len(cs) != 0 {
					t.Fatalf("%v (%v) contention: %v\nsrc=%v dests=%v", a, res, cs[0], src, dests)
				}
			}
		}
	}
}

// Combine is not covered by Theorem 6 (which addresses Maxport on
// cube-ordered chains), but its schedules are empirically contention-free
// as well: its same-channel sends serialize at the sender, which Definition
// 4 excuses via the common-source rule, and cross-node overlaps stay within
// ancestor subtrees. Keep this as a regression property.
func TestCombineContentionFreeEmpirically(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 400; trial++ {
		src := topology.NodeID(rng.Intn(64))
		dests := randomDests(rng, 6, src, 1+rng.Intn(63))
		s := NewSchedule(Build(c, Combine, src, dests), AllPort)
		if cs := CheckContention(s); len(cs) != 0 {
			t.Fatalf("Combine contention: %v (src=%v dests=%v)", cs[0], src, dests)
		}
	}
}

// Maxport and W-sort never defer a send in the all-port schedule: every
// node's sends all launch the step after it receives. (This is the
// "actively identifies and uses multiple ports in parallel" property.)
func TestMaxportWSortNeverDefer(t *testing.T) {
	c := topology.New(7, topology.HighToLow)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		src := topology.NodeID(rng.Intn(128))
		m := 1 + rng.Intn(127)
		dests := randomDests(rng, 7, src, m)
		for _, a := range []Algorithm{Maxport, WSort} {
			s := NewSchedule(Build(c, a, src, dests), AllPort)
			for _, u := range s.Unicasts {
				if recv, _ := s.RecvStep(u.From); u.Step != recv+1 {
					t.Fatalf("%v: send %v->%v at step %d but sender received at %d",
						a, u.From, u.To, u.Step, recv)
				}
			}
		}
	}
}

// U-cube achieves exactly ceil(log2(m+1)) steps on one-port — the tight
// lower bound the paper cites.
func TestUCubeOnePortOptimal(t *testing.T) {
	c := topology.New(8, topology.HighToLow)
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		src := topology.NodeID(rng.Intn(256))
		m := 1 + rng.Intn(255)
		dests := randomDests(rng, 8, src, m)
		s := NewSchedule(Build(c, UCube, src, dests), OnePort)
		want := bits.CeilLog2(len(dests) + 1)
		if got := s.Steps(); got != want {
			t.Fatalf("U-cube one-port steps = %d, want %d (m=%d)", got, want, m)
		}
	}
}

// One-port U-cube schedules are contention-free (the result of [9] the
// paper builds on).
func TestUCubeOnePortContentionFree(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		src := topology.NodeID(rng.Intn(64))
		dests := randomDests(rng, 6, src, 1+rng.Intn(63))
		s := NewSchedule(Build(c, UCube, src, dests), OnePort)
		if cs := CheckContention(s); len(cs) != 0 {
			t.Fatalf("U-cube one-port contention: %v (src=%v dests=%v)", cs[0], src, dests)
		}
	}
}

// Theorem 3 sanity: no schedule ever reports contention between two
// unicasts sharing a source.
func TestTheorem3OnAllSchedules(t *testing.T) {
	c := topology.New(5, topology.HighToLow)
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 100; trial++ {
		src := topology.NodeID(rng.Intn(32))
		dests := randomDests(rng, 5, src, 1+rng.Intn(31))
		for _, a := range Algorithms() {
			for _, pm := range []PortModel{OnePort, AllPort} {
				s := NewSchedule(Build(c, a, src, dests), pm)
				if !Theorem3Holds(s) {
					t.Fatalf("Theorem 3 violated by %v under %v", a, pm)
				}
			}
		}
	}
}

// All-port never does worse than one-port for the same tree, and the
// all-port step count is bounded below by the tree height.
func TestAllPortNoWorseThanOnePort(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 200; trial++ {
		src := topology.NodeID(rng.Intn(64))
		dests := randomDests(rng, 6, src, 1+rng.Intn(63))
		for _, a := range Algorithms() {
			tr := Build(c, a, src, dests)
			ap := NewSchedule(tr, AllPort).Steps()
			op := NewSchedule(tr, OnePort).Steps()
			if ap > op {
				t.Fatalf("%v: all-port %d steps > one-port %d", a, ap, op)
			}
		}
	}
}

// Broadcast (all nodes are destinations): every chain algorithm needs
// exactly n steps on all-port? Only the port-aware ones do; U-cube needs n
// on one-port too since m+1 = 2^n. W-sort broadcast forms the binomial
// tree: n steps, N-1 unicasts, all single-dimension-decreasing.
func TestBroadcastShapes(t *testing.T) {
	n := 6
	c := topology.New(n, topology.HighToLow)
	var dests []topology.NodeID
	for v := 1; v < c.Nodes(); v++ {
		dests = append(dests, topology.NodeID(v))
	}
	for _, a := range []Algorithm{UCube, Maxport, Combine, WSort} {
		tr := Build(c, a, 0, dests)
		s := NewSchedule(tr, AllPort)
		if got := s.Steps(); got != n {
			t.Errorf("%v broadcast steps = %d, want %d", a, got, n)
		}
		if got := len(s.Unicasts); got != c.Nodes()-1 {
			t.Errorf("%v broadcast unicasts = %d, want %d", a, got, c.Nodes()-1)
		}
	}
	// One-port broadcast is also n steps (2^n - 1 destinations).
	s := NewSchedule(Build(c, UCube, 0, dests), OnePort)
	if got := s.Steps(); got != n {
		t.Errorf("U-cube one-port broadcast steps = %d, want %d", got, n)
	}
}

// For Maxport broadcasts every unicast is single-hop (classic binomial
// spanning tree of the hypercube).
func TestMaxportBroadcastSingleHop(t *testing.T) {
	c := topology.New(5, topology.HighToLow)
	var dests []topology.NodeID
	for v := 1; v < c.Nodes(); v++ {
		dests = append(dests, topology.NodeID(v))
	}
	tr := Build(c, Maxport, 0, dests)
	for _, s := range tr.Unicasts() {
		if topology.Distance(s.From, s.To) != 1 {
			t.Fatalf("broadcast send %v->%v not single hop", s.From, s.To)
		}
	}
}

// Degenerate inputs: no destinations, one destination, destination == src.
func TestDegenerateInputs(t *testing.T) {
	c := topology.New(4, topology.HighToLow)
	for _, a := range Algorithms() {
		tr := Build(c, a, 5, nil)
		tr.Validate()
		if len(tr.Unicasts()) != 0 {
			t.Errorf("%v: empty multicast emitted sends", a)
		}
		s := NewSchedule(tr, AllPort)
		if s.Steps() != 0 {
			t.Errorf("%v: empty multicast steps != 0", a)
		}
		tr = Build(c, a, 5, []topology.NodeID{5})
		if len(tr.Unicasts()) != 0 {
			t.Errorf("%v: self-destination emitted sends", a)
		}
		tr = Build(c, a, 5, []topology.NodeID{9})
		// Store-and-forward relays hop by hop, so it takes one unicast
		// per hop; every wormhole algorithm needs exactly one.
		wantUnicasts, wantSteps := 1, 1
		if a == SFBinomial {
			wantUnicasts = topology.Distance(5, 9)
			wantSteps = wantUnicasts
		}
		if got := len(tr.Unicasts()); got != wantUnicasts {
			t.Errorf("%v: single destination gave %d unicasts, want %d", a, got, wantUnicasts)
		}
		if st := NewSchedule(tr, AllPort); st.Steps() != wantSteps {
			t.Errorf("%v: single destination steps = %d, want %d", a, st.Steps(), wantSteps)
		}
	}
}

// Build is deterministic: identical inputs give identical trees.
func TestBuildDeterministic(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	rng := rand.New(rand.NewSource(61))
	src := topology.NodeID(17)
	dests := randomDests(rng, 6, src, 20)
	for _, a := range Algorithms() {
		t1 := Build(c, a, src, dests)
		t2 := Build(c, a, src, dests)
		u1, u2 := t1.Unicasts(), t2.Unicasts()
		if len(u1) != len(u2) {
			t.Fatalf("%v: nondeterministic unicast count", a)
		}
		for i := range u1 {
			if u1[i].From != u2[i].From || u1[i].To != u2[i].To {
				t.Fatalf("%v: nondeterministic tree", a)
			}
		}
	}
}

// The LowToHigh resolution produces trees with identical step counts to
// HighToLow on bit-reversed inputs (the automorphism argument).
func TestResolutionAutomorphism(t *testing.T) {
	n := 6
	ch := topology.New(n, topology.HighToLow)
	cl := topology.New(n, topology.LowToHigh)
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 100; trial++ {
		src := topology.NodeID(rng.Intn(64))
		dests := randomDests(rng, n, src, 1+rng.Intn(40))
		rsrc := cl.Canon(src)
		rdests := make([]topology.NodeID, len(dests))
		for i, d := range dests {
			rdests[i] = cl.Canon(d)
		}
		for _, a := range []Algorithm{UCube, Maxport, Combine, WSort} {
			sh := NewSchedule(Build(ch, a, rsrc, rdests), AllPort)
			sl := NewSchedule(Build(cl, a, src, dests), AllPort)
			if sh.Steps() != sl.Steps() {
				t.Fatalf("%v: resolution changes steps (%d vs %d)", a, sh.Steps(), sl.Steps())
			}
		}
	}
}

// Separate addressing on one-port needs exactly m steps.
func TestSeparateAddressingOnePortSteps(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		src := topology.NodeID(rng.Intn(64))
		m := 1 + rng.Intn(30)
		dests := randomDests(rng, 6, src, m)
		s := NewSchedule(Build(c, SeparateAddressing, src, dests), OnePort)
		if got := s.Steps(); got != m {
			t.Fatalf("separate one-port steps = %d, want %d", got, m)
		}
	}
}

// Every payload handed down by Maxport and W-sort is itself cube-ordered
// (Definition 5) — the invariant Theorem 6's recursion rests on: each
// recipient can keep splitting by subcube because its chain's subcube
// members stay contiguous.
func TestPayloadsStayCubeOrdered(t *testing.T) {
	c := topology.New(7, topology.HighToLow)
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 100; trial++ {
		src := topology.NodeID(rng.Intn(128))
		dests := randomDests(rng, 7, src, 1+rng.Intn(100))
		for _, a := range []Algorithm{Maxport, WSort, Combine, UCube} {
			tr := Build(c, a, src, dests)
			for _, snd := range tr.Unicasts() {
				if !snd.Payload.IsCubeOrdered(7) {
					t.Fatalf("%v: payload %v of %v->%v not cube-ordered",
						a, snd.Payload, snd.From, snd.To)
				}
			}
		}
	}
}

// Weighted sort is self-similar: the payload a W-sort recipient receives
// equals what it would get by weighted-sorting that payload itself (with
// the recipient's own element pinned first). This is why the distributed
// algorithm needs no re-sorting at intermediate nodes.
func TestWeightedSortSelfSimilar(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 100; trial++ {
		src := topology.NodeID(rng.Intn(64))
		dests := randomDests(rng, 6, src, 1+rng.Intn(60))
		tr := Build(c, WSort, src, dests)
		for _, snd := range tr.Unicasts() {
			again := append(chain.Chain(nil), snd.Payload...)
			// Re-sorting in the recipient's own relative frame: xor
			// with the recipient's relative address so it sits at 0,
			// run weighted sort, xor back. If the payload is already
			// weighted, this is a no-op.
			self := again[0]
			for i := range again {
				again[i] ^= self
			}
			again.WeightedSort(c.Dim())
			for i := range again {
				again[i] ^= self
			}
			for i := range again {
				if again[i] != snd.Payload[i] {
					t.Fatalf("payload of %v not weighted-sort-stable:\n  got  %v\n  want %v",
						snd.To, snd.Payload, again)
				}
			}
		}
	}
}

// Payload chains carried by sends must always be valid sub-chains: the
// recipient's own relative address is the first element of its
// responsibility, i.e. the payload lists exactly the nodes of its subtree.
func TestPayloadMatchesSubtree(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 100; trial++ {
		src := topology.NodeID(rng.Intn(64))
		dests := randomDests(rng, 6, src, 1+rng.Intn(40))
		for _, a := range []Algorithm{UCube, Maxport, Combine, WSort} {
			tr := Build(c, a, src, dests)
			for _, snd := range tr.Unicasts() {
				reach := tr.Reachable(snd.To)
				if len(reach) != len(snd.Payload) {
					t.Fatalf("%v: payload size %d != subtree size %d", a, len(snd.Payload), len(reach))
				}
				for _, rel := range snd.Payload {
					abs := tr.abs(rel)
					if !reach[abs] {
						t.Fatalf("%v: payload node %v not in subtree of %v", a, abs, snd.To)
					}
				}
			}
		}
	}
}
