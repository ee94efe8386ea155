package ncube

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/faults"
	"hypercube/internal/topology"
)

// ftAlgorithms are the port-aware chain algorithms the acceptance criteria
// name; SFBinomial and SeparateAddressing get dedicated scenarios.
var ftAlgorithms = []core.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort}

func ftParams() JitterParams {
	return JitterParams{Params: NCube2(core.AllPort)}
}

func allNodes(c topology.Cube, src topology.NodeID) []topology.NodeID {
	var out []topology.NodeID
	for v := 0; v < c.Nodes(); v++ {
		if topology.NodeID(v) != src {
			out = append(out, topology.NodeID(v))
		}
	}
	return out
}

// treeArcs collects every directed channel any tree unicast's E-cube path
// crosses.
func treeArcs(c topology.Cube, a core.Algorithm, src topology.NodeID, dests []topology.NodeID) map[topology.Arc]bool {
	used := make(map[topology.Arc]bool)
	for _, s := range core.Build(c, a, src, dests).Unicasts() {
		for _, arc := range c.PathArcs(s.From, s.To) {
			used[arc] = true
		}
	}
	return used
}

func requireAllReached(t *testing.T, res Result, dests []topology.NodeID) {
	t.Helper()
	for _, d := range dests {
		st, ok := res.Status[d]
		if !ok || !st.Reached() {
			t.Fatalf("destination %v: status %v (recorded=%v)", d, st, ok)
		}
		if _, ok := res.Recv[d]; !ok {
			t.Fatalf("destination %v reached but has no receipt time", d)
		}
	}
}

// With an empty fault plan the fault-tolerant protocol is the plain
// distributed protocol plus acknowledgments: same receipt times, every
// destination StatusDelivered, no retries or repairs.
func TestFaultTolerantFaultFreeMatchesDistributed(t *testing.T) {
	cube := topology.New(4, topology.HighToLow)
	dests := allNodes(cube, 0)
	for _, a := range ftAlgorithms {
		t.Run(a.String(), func(t *testing.T) {
			jp := ftParams()
			plain := RunDistributed(jp, cube, a, 0, dests, 256)
			ft, err := RunFaultTolerantInstrumented(jp, cube, a, 0, dests, 256, faults.Plan{}, Instrumentation{})
			if err != nil {
				t.Fatalf("RunFaultTolerantInstrumented: %v", err)
			}
			if !reflect.DeepEqual(ft.Recv, plain.Recv) {
				t.Fatalf("receipt times diverge from the plain protocol:\nft   =%v\nplain=%v", ft.Recv, plain.Recv)
			}
			if ft.Retries != 0 || ft.Repairs != 0 {
				t.Fatalf("fault-free run reports retries=%d repairs=%d", ft.Retries, ft.Repairs)
			}
			for _, d := range dests {
				if ft.Status[d] != StatusDelivered {
					t.Fatalf("destination %v status %v", d, ft.Status[d])
				}
			}
		})
	}
}

// Killing a link no tree path crosses changes nothing: every destination is
// delivered first-try with receipt times identical to the fault-free run.
func TestOffTreeLinkFaultHarmless(t *testing.T) {
	cube := topology.New(4, topology.HighToLow)
	dests := allNodes(cube, 0)
	for _, a := range ftAlgorithms {
		t.Run(a.String(), func(t *testing.T) {
			used := treeArcs(cube, a, 0, dests)
			var off []topology.Arc
			for v := 0; v < cube.Nodes(); v++ {
				for d := 0; d < cube.Dim(); d++ {
					arc := topology.Arc{From: topology.NodeID(v), Dim: d}
					if !used[arc] {
						off = append(off, arc)
					}
				}
			}
			if len(off) == 0 {
				t.Fatal("tree uses every channel; no off-tree arc to fail")
			}
			jp := ftParams()
			baseline, err := RunFaultTolerantInstrumented(jp, cube, a, 0, dests, 256, faults.Plan{}, Instrumentation{})
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			// Ack traffic may legitimately cross off-tree arcs, and a
			// severed ack path costs retries but must not change delivery:
			// check a sample of off-tree arcs, requiring identical receipt
			// times whenever no retry was provoked.
			for i, arc := range off {
				if i%3 != 0 {
					continue
				}
				plan := faults.Plan{Links: []faults.LinkFault{{Arc: arc}}}
				res, err := RunFaultTolerantInstrumented(jp, cube, a, 0, dests, 256, plan, Instrumentation{})
				if err != nil {
					t.Fatalf("arc %v: %v", arc, err)
				}
				requireAllReached(t, res, dests)
				if res.Retries == 0 && !reflect.DeepEqual(res.Recv, baseline.Recv) {
					t.Fatalf("arc %v off-tree yet receipt times changed", arc)
				}
			}
		})
	}
}

// Killing a channel the tree does use (Drop mode) forces the retry budget
// to run dry on that edge; repair must still reach every destination.
func TestOnTreeLinkFaultRepaired(t *testing.T) {
	cube := topology.New(3, topology.HighToLow)
	dests := allNodes(cube, 0)
	for _, a := range ftAlgorithms {
		t.Run(a.String(), func(t *testing.T) {
			// Fail the first hop of the source's first unicast — always on
			// the tree, and upstream of a whole subtree.
			first := core.Build(cube, a, 0, dests).Sends[0][0]
			arc := cube.PathArcs(first.From, first.To)[0]
			jp := ftParams()
			res, err := RunFaultTolerantInstrumented(jp, cube, a, 0, dests, 64,
				faults.Plan{Links: []faults.LinkFault{{Arc: arc}}}, Instrumentation{})
			if err != nil {
				t.Fatalf("RunFaultTolerantInstrumented: %v", err)
			}
			requireAllReached(t, res, dests)
			if res.Retries == 0 || res.Repairs == 0 {
				t.Fatalf("dead on-tree arc %v provoked retries=%d repairs=%d", arc, res.Retries, res.Repairs)
			}
			if res.Status[first.To] != StatusRerouted {
				t.Fatalf("cut-off child %v status %v, want rerouted", first.To, res.Status[first.To])
			}
		})
	}
}

// A transient window heals before the retry budget runs out: the delivery
// arrives late on the original path, reported StatusRetried, no repair.
func TestTransientFaultRecoversByRetry(t *testing.T) {
	cube := topology.New(3, topology.HighToLow)
	dests := allNodes(cube, 0)
	jp := ftParams()
	jp.AckTimeout = 2 * event.Millisecond
	first := core.Build(cube, core.UCube, 0, dests).Sends[0][0]
	arc := cube.PathArcs(first.From, first.To)[0]
	res, err := RunFaultTolerantInstrumented(jp, cube, core.UCube, 0, dests, 64,
		faults.Plan{Links: []faults.LinkFault{{Arc: arc, From: 0, Until: 3 * event.Millisecond}}}, Instrumentation{})
	if err != nil {
		t.Fatalf("RunFaultTolerantInstrumented: %v", err)
	}
	requireAllReached(t, res, dests)
	if res.Status[first.To] != StatusRetried {
		t.Fatalf("child %v status %v, want retried", first.To, res.Status[first.To])
	}
	if res.Repairs != 0 {
		t.Fatalf("transient fault escalated to %d repairs", res.Repairs)
	}
}

// A crashed interior node takes itself down but not its subtree: the
// parent's repair reroutes every live descendant, and the dead node is
// reported StatusDeadNode.
func TestNodeCrashSubtreeRerouted(t *testing.T) {
	cube := topology.New(3, topology.HighToLow)
	dests := allNodes(cube, 0)
	for _, a := range ftAlgorithms {
		t.Run(a.String(), func(t *testing.T) {
			first := core.Build(cube, a, 0, dests).Sends[0][0]
			res, err := RunFaultTolerantInstrumented(ftParams(), cube, a, 0, dests, 64,
				faults.Plan{Nodes: []faults.NodeFault{{Node: first.To, At: 0}}}, Instrumentation{})
			if err != nil {
				t.Fatalf("RunFaultTolerantInstrumented: %v", err)
			}
			if res.Status[first.To] != StatusDeadNode {
				t.Fatalf("crashed node %v status %v", first.To, res.Status[first.To])
			}
			for _, d := range dests {
				if d == first.To {
					continue
				}
				if !res.Status[d].Reached() {
					t.Fatalf("live destination %v lost with the crashed relay: %v", d, res.Status[d])
				}
			}
			if res.Repairs == 0 {
				t.Fatal("crash repaired without any repair recorded")
			}
		})
	}
}

// SFBinomial repair falls back to direct sends (re-splitting the lost
// responsibility list would target the same dead partner).
func TestSFBinomialCrashRepair(t *testing.T) {
	cube := topology.New(3, topology.HighToLow)
	dests := allNodes(cube, 0)
	first := core.Build(cube, core.SFBinomial, 0, dests).Sends[0][0]
	res, err := RunFaultTolerantInstrumented(ftParams(), cube, core.SFBinomial, 0, dests, 64,
		faults.Plan{Nodes: []faults.NodeFault{{Node: first.To, At: 0}}}, Instrumentation{})
	if err != nil {
		t.Fatalf("RunFaultTolerantInstrumented: %v", err)
	}
	if res.Status[first.To] != StatusDeadNode {
		t.Fatalf("crashed node %v status %v", first.To, res.Status[first.To])
	}
	for _, d := range dests {
		if d != first.To && !res.Status[d].Reached() {
			t.Fatalf("destination %v: %v", d, res.Status[d])
		}
	}
}

// Stall-mode faults wedge channels; a tight watchdog budget converts the
// stuck run into a diagnostic naming the held channels instead of a hang.
func TestWatchdogDiagnosesWedgedNetwork(t *testing.T) {
	cube := topology.New(3, topology.HighToLow)
	jp := ftParams()
	jp.AckTimeout = 5 * event.Millisecond
	jp.WatchdogTime = 1 * event.Millisecond
	// The unicast 0 -> 6 routes over {0,d2} then {4,d1}; stalling the
	// second hop wedges the worm while it holds the first channel.
	_, err := RunFaultTolerantInstrumented(jp, cube, core.UCube, 0, []topology.NodeID{6}, 64,
		faults.Plan{Mode: faults.Stall, Links: []faults.LinkFault{{Arc: topology.Arc{From: 4, Dim: 1}}}}, Instrumentation{})
	var diag *event.Diagnostic
	if !errors.As(err, &diag) {
		t.Fatalf("err = %v, want *event.Diagnostic", err)
	}
	if !strings.Contains(diag.Reason, "time budget") {
		t.Fatalf("diagnostic reason %q", diag.Reason)
	}
	if !strings.Contains(diag.Detail, "wedged on failed link") {
		t.Fatalf("diagnostic detail %q missing the held-channel snapshot", diag.Detail)
	}
}

// Identical seeds and plans give byte-identical results, even with random
// drops, jitter, and repairs in play.
func TestFaultTolerantDeterministic(t *testing.T) {
	cube := topology.New(4, topology.HighToLow)
	dests := allNodes(cube, 0)
	jp := ftParams()
	jp.Amount = 0.2
	jp.Seed = 99
	plan := faults.Plan{Seed: 7, DropRate: 0.1}
	a, err1 := RunFaultTolerantInstrumented(jp, cube, core.Maxport, 0, dests, 128, plan, Instrumentation{})
	b, err2 := RunFaultTolerantInstrumented(jp, cube, core.Maxport, 0, dests, 128, plan, Instrumentation{})
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("errors diverge: %v vs %v", err1, err2)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

// Malformed inputs come back as errors, never panics.
func TestFaultTolerantInputErrors(t *testing.T) {
	cube := topology.New(3, topology.HighToLow)
	good := ftParams()
	cases := []struct {
		name  string
		jp    JitterParams
		src   topology.NodeID
		dests []topology.NodeID
		bytes int
		plan  faults.Plan
	}{
		{"negative timing", JitterParams{Params: Params{TStartup: -1, Port: core.AllPort}}, 0, []topology.NodeID{1}, 8, faults.Plan{}},
		{"bad backoff", func() JitterParams { p := good; p.AckBackoff = 0.5; return p }(), 0, []topology.NodeID{1}, 8, faults.Plan{}},
		{"negative retries", func() JitterParams { p := good; p.MaxRetries = -1; return p }(), 0, []topology.NodeID{1}, 8, faults.Plan{}},
		{"jitter range", func() JitterParams { p := good; p.Amount = 1.5; return p }(), 0, []topology.NodeID{1}, 8, faults.Plan{}},
		{"source outside", good, 99, []topology.NodeID{1}, 8, faults.Plan{}},
		{"dest outside", good, 0, []topology.NodeID{42}, 8, faults.Plan{}},
		{"negative bytes", good, 0, []topology.NodeID{1}, -5, faults.Plan{}},
		{"plan outside cube", good, 0, []topology.NodeID{1}, 8,
			faults.Plan{Links: []faults.LinkFault{{Arc: topology.Arc{From: 99, Dim: 0}}}}},
		{"plan bad rate", good, 0, []topology.NodeID{1}, 8, faults.Plan{DropRate: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RunFaultTolerantInstrumented(tc.jp, cube, core.UCube, tc.src, tc.dests, tc.bytes, tc.plan, Instrumentation{}); err == nil {
				t.Fatal("invalid input accepted")
			}
		})
	}
}

// The one-port model serializes on resolution rather than delivery, but
// fault-free it must still reach everyone in the plain protocol's order.
func TestFaultTolerantOnePort(t *testing.T) {
	cube := topology.New(3, topology.HighToLow)
	dests := allNodes(cube, 0)
	jp := JitterParams{Params: NCube2(core.OnePort)}
	res, err := RunFaultTolerantInstrumented(jp, cube, core.UCube, 0, dests, 64, faults.Plan{}, Instrumentation{})
	if err != nil {
		t.Fatalf("RunFaultTolerantInstrumented: %v", err)
	}
	requireAllReached(t, res, dests)
	if res.Retries != 0 || res.Repairs != 0 {
		t.Fatalf("fault-free one-port run reports retries=%d repairs=%d", res.Retries, res.Repairs)
	}
}

func ExampleDeliveryStatus() {
	fmt.Println(StatusDelivered, StatusRerouted, StatusDeadNode)
	// Output: delivered rerouted dead-node
}
