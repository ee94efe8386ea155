package ncube

import (
	"reflect"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/faults"
	"hypercube/internal/topology"
)

// TestSessionInjectMatchesRun: a single tree injected into an otherwise
// idle session must reproduce Run's result exactly — same Recv map (in
// op-relative time), same Makespan, same TotalBlocked — regardless of the
// injection instant. This is the substrate guarantee the traffic engine's
// isolated-op acceptance criterion rests on.
func TestSessionInjectMatchesRun(t *testing.T) {
	cube := topology.New(4, topology.HighToLow)
	dests := []topology.NodeID{1, 3, 5, 7, 9, 12, 14, 15}
	for _, alg := range core.Algorithms() {
		for _, port := range []core.PortModel{core.OnePort, core.AllPort} {
			for _, at := range []event.Time{0, 777 * event.Microsecond} {
				tr := core.Build(cube, alg, 3, dests)
				want := Run(NCube2(port), tr, 4096)

				s := NewSession(NCube2(port), cube, Instrumentation{})
				got := s.InjectTree(at, tr, 4096, nil)
				if err := s.Run(0, 0); err != nil {
					t.Fatalf("%v/%v at %v: session run: %v", alg, port, at, err)
				}
				if !reflect.DeepEqual(got.Recv, want.Recv) {
					t.Errorf("%v/%v at %v: Recv mismatch\n got %v\nwant %v", alg, port, at, got.Recv, want.Recv)
				}
				if got.Makespan != want.Makespan {
					t.Errorf("%v/%v at %v: Makespan %v, want %v", alg, port, at, got.Makespan, want.Makespan)
				}
				if got.TotalBlocked != want.TotalBlocked {
					t.Errorf("%v/%v at %v: TotalBlocked %v, want %v", alg, port, at, got.TotalBlocked, want.TotalBlocked)
				}
				s.Release()
			}
		}
	}
}

// TestSessionDoneFiresAtMakespan: the completion hook runs at the op's
// last-arrival instant on the shared calendar.
func TestSessionDoneFiresAtMakespan(t *testing.T) {
	cube := topology.New(5, topology.HighToLow)
	tr := core.Build(cube, mustAlg(t, "w-sort"), 0, []topology.NodeID{1, 4, 9, 17, 22, 31})
	const at = 250 * event.Microsecond

	s := NewSession(NCube2(core.AllPort), cube, Instrumentation{})
	var doneAt event.Time
	var doneRes *Result
	var makespan event.Time
	// The session recycles an op with a done hook once it goes quiet, so
	// its result is read inside the hook.
	res := s.InjectTree(at, tr, 1024, func(r *Result) {
		doneAt = s.Now()
		doneRes = r
		makespan = r.Makespan
	})
	if err := s.Run(0, 0); err != nil {
		t.Fatalf("session run: %v", err)
	}
	if doneRes != res {
		t.Fatalf("done hook received a different result pointer")
	}
	if want := at + makespan; doneAt != want {
		t.Errorf("done fired at %v, want injection %v + makespan %v = %v", doneAt, at, makespan, want)
	}
	s.Release()
}

// TestSessionTwoOpsSharedNetwork: two trees on one session both complete,
// and re-running the identical scenario on a fresh (pooled) session gives
// byte-identical results — pooled reuse must not leak state.
func TestSessionTwoOpsSharedNetwork(t *testing.T) {
	cube := topology.New(5, topology.HighToLow)
	trA := core.Build(cube, mustAlg(t, "w-sort"), 0, []topology.NodeID{3, 7, 11, 19, 30})
	trB := core.Build(cube, mustAlg(t, "u-cube"), 5, []topology.NodeID{2, 9, 16, 27})

	runOnce := func() (Result, Result) {
		s := NewSession(NCube2(core.AllPort), cube, Instrumentation{})
		ra := s.InjectTree(0, trA, 2048, nil)
		rb := s.InjectTree(40*event.Microsecond, trB, 2048, nil)
		if err := s.Run(0, 0); err != nil {
			t.Fatalf("session run: %v", err)
		}
		a, b := *ra, *rb
		s.Release()
		return a, b
	}
	a1, b1 := runOnce()
	a2, b2 := runOnce()
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) {
		t.Errorf("pooled re-run diverged:\nA1 %+v\nA2 %+v\nB1 %+v\nB2 %+v", a1, a2, b1, b2)
	}
	if len(a1.Recv) != 5 || len(b1.Recv) != 4 {
		t.Errorf("incomplete deliveries: |A|=%d |B|=%d", len(a1.Recv), len(b1.Recv))
	}
}

// TestSessionFaultHygieneAfterReuse: a session that ran a heavily faulted
// scenario (dead links stranding a tree, a dead node forcing the reliable
// protocol through retries) and was Released must, when reborrowed for a
// fault-free scenario, produce results byte-identical to a run that never
// saw faults. Runs under -race in CI's race stage: the pool may hand the
// dirty session to any goroutine.
func TestSessionFaultHygieneAfterReuse(t *testing.T) {
	cube := topology.New(4, topology.HighToLow)
	tr := core.Build(cube, mustAlg(t, "w-sort"), 0, []topology.NodeID{1, 3, 5, 7, 9, 12, 14})

	cleanRun := func() Result {
		s := NewSession(NCube2(core.AllPort), cube, Instrumentation{})
		r := s.InjectTree(0, tr, 4096, nil)
		if err := s.Run(0, 0); err != nil {
			t.Fatalf("clean run: %v", err)
		}
		out := *r
		s.Release()
		return out
	}
	want := cleanRun()
	if len(want.Recv) != 7 {
		t.Fatalf("clean run delivered %d/7", len(want.Recv))
	}

	for cycle := 0; cycle < 3; cycle++ {
		// Dirty the pooled session: sever the root's links and fail-stop
		// a destination, then drive both the plain-tree loss accounting
		// and the full ack/retry/repair protocol across it.
		s := NewSession(NCube2(core.AllPort), cube, Instrumentation{})
		sch := faults.NewSchedule()
		for dim := 0; dim < 2; dim++ {
			sch.AddLink(topology.Arc{From: 0, Dim: dim}, 0, 0, false)
		}
		sch.AddNode(9, 0)
		s.SetFaults(sch)
		s.SetExtraDiagnoser(func() string { return "dirty scenario" })
		rt := s.InjectTree(0, tr, 4096, nil)
		rf := s.InjectFaultTolerant(0, mustAlg(t, "w-sort"), 15,
			[]topology.NodeID{9, 11, 14}, 4096, sch, nil)
		if err := s.Run(0, 0); err != nil {
			t.Fatalf("cycle %d faulted run: %v", cycle, err)
		}
		if len(rt.Recv) == 7 {
			t.Fatalf("cycle %d: severed tree still delivered everywhere", cycle)
		}
		delivered := 0
		for _, how := range rf.Status {
			if how.Reached() {
				delivered++
			}
		}
		if len(rf.Status) != 3 || delivered != 2 {
			t.Fatalf("cycle %d: ft op status %v, want 2 reached of 3", cycle, rf.Status)
		}
		s.Release()

		if got := cleanRun(); !reflect.DeepEqual(got, want) {
			t.Errorf("cycle %d: fault-free run on a recycled session diverged:\n got %+v\nwant %+v", cycle, got, want)
		}
	}
}

func mustAlg(t *testing.T, name string) core.Algorithm {
	t.Helper()
	a, err := core.ParseAlgorithm(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestOwnedSessionRunTreeMatchesRun: an owned session running tree after
// tree — across algorithms, port models, cube sizes and message lengths,
// a broadcast followed by small multicasts — reproduces Run's result each
// time, so nothing of one run (a Recv entry, a node's sends, a held
// channel) leaks into the next.
func TestOwnedSessionRunTreeMatchesRun(t *testing.T) {
	for _, port := range []core.PortModel{core.OnePort, core.AllPort} {
		p := NCube2(port)
		s := NewOwnedSession(p, Instrumentation{})
		for _, dim := range []int{6, 3, 5} {
			cube := topology.New(dim, topology.HighToLow)
			for _, alg := range core.Algorithms() {
				for _, dests := range [][]topology.NodeID{allNodesBut(cube, 0), {1, 2}, {5, 6, 7}} {
					tr := core.Build(cube, alg, 0, dests)
					want := Run(p, tr, 512*dim)
					got := s.RunTree(tr, 512*dim)
					if !reflect.DeepEqual(*got, want) {
						t.Fatalf("%v/%v on a %d-cube to %d nodes: owned run\n%+v\nwant\n%+v", port, alg, dim, len(dests), *got, want)
					}
				}
			}
		}
	}
}

// An owned session never goes to the pool, and a pooled one cannot run
// trees whose results it would reuse.
func TestOwnedSessionOwnership(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	cube := topology.New(3, topology.HighToLow)
	tr := core.Build(cube, core.WSort, 0, []topology.NodeID{1, 2, 7})
	mustPanic("Release of an owned session", func() {
		NewOwnedSession(NCube2(core.AllPort), Instrumentation{}).Release()
	})
	pooled := NewSession(NCube2(core.AllPort), cube, Instrumentation{})
	mustPanic("RunTree on a pooled session", func() { pooled.RunTree(tr, 64) })
	pooled.Release()
}
