package hypercube_test

import (
	"testing"

	"hypercube"
	"hypercube/internal/core"
	"hypercube/internal/emulator"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
)

// Soak tests exercise the system at the largest scales the paper discusses
// (and beyond). They are skipped under -short.

// Full 12-cube (4096 nodes) broadcast through build, both schedulers, the
// contention checker, and the machine simulator.
func TestSoakBroadcast12Cube(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cube := hypercube.New(12, hypercube.HighToLow)
	tree := hypercube.Broadcast(cube, hypercube.WSort, 1234)
	if got := hypercube.Schedule(tree, hypercube.AllPort).Steps(); got != 12 {
		t.Fatalf("broadcast steps = %d", got)
	}
	if got := hypercube.Schedule(tree, hypercube.OnePort).Steps(); got != 12 {
		t.Fatalf("one-port broadcast steps = %d", got)
	}
	res := hypercube.Simulate(hypercube.NCube2Params(hypercube.AllPort), tree, 4096)
	if len(res.Recv) != cube.Nodes()-1 {
		t.Fatalf("broadcast receipts = %d", len(res.Recv))
	}
	if res.TotalBlocked != 0 {
		t.Fatalf("broadcast blocked %v", res.TotalBlocked)
	}
}

// Heavy randomized sweep on the paper's largest evaluated system: 10-cube,
// destination counts across the whole range, all four algorithms, with
// Definition 4 checks on sampled instances.
func TestSoak10CubeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cube := hypercube.New(10, hypercube.HighToLow)
	for _, m := range []int{1, 15, 100, 511, 1023} {
		dests := hypercube.RandomDests(cube, int64(m), 77, m)
		for _, a := range []hypercube.Algorithm{
			hypercube.UCube, hypercube.Maxport, hypercube.Combine, hypercube.WSort,
		} {
			tree := hypercube.Multicast(cube, a, 77, dests)
			s := hypercube.Schedule(tree, hypercube.AllPort)
			lb := hypercube.StepLowerBound(hypercube.AllPort, 10, m)
			if s.Steps() < lb {
				t.Fatalf("%v m=%d: %d steps beats bound %d", a, m, s.Steps(), lb)
			}
			if m <= 100 { // quadratic checker: keep it bounded
				if cs := hypercube.CheckContention(s); (a == hypercube.Maxport || a == hypercube.WSort) && len(cs) != 0 {
					t.Fatalf("%v m=%d: contention %v", a, m, cs[0])
				}
			}
			res := hypercube.Simulate(hypercube.NCube2Params(hypercube.AllPort), tree, 4096)
			if len(res.Recv) != m {
				t.Fatalf("%v m=%d: receipts %d", a, m, len(res.Recv))
			}
		}
	}
}

// The concurrent emulator at 512 nodes under the race detector (when run
// with -race) with a broadcast and several random multicasts.
func TestSoakEmulator9Cube(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cube := topology.New(9, topology.HighToLow)
	e := emulator.New(cube)
	defer e.Close()
	payload := make([]byte, 2048)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for trial := 0; trial < 5; trial++ {
		src := topology.NodeID(trial * 97 % 512)
		dests := hypercube.RandomDests(cube, int64(trial), src, 200)
		res := e.Run(core.WSort, src, dests, payload)
		if len(res.Receipts) != 200 {
			t.Fatalf("trial %d: receipts %d", trial, len(res.Receipts))
		}
		for _, rec := range res.Receipts {
			if len(rec.Payload) != len(payload) {
				t.Fatal("payload truncated")
			}
		}
	}
}

// The fault-tolerant protocol soaked with everything at once: a 7-cube,
// random destination sets, software jitter, random link failures, node
// crashes, and message drops — every run must terminate with a coherent
// per-destination account, and live reachable destinations must dominate.
func TestSoakFaultTolerant7Cube(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cube := hypercube.New(7, hypercube.HighToLow)
	p := hypercube.NCube2Params(hypercube.AllPort)
	for trial := 0; trial < 8; trial++ {
		seed := int64(4000 + trial)
		src := hypercube.NodeID(trial * 31 % cube.Nodes())
		dests := hypercube.RandomDests(cube, seed, src, 40)
		plan := hypercube.FaultPlan{
			Seed:     seed,
			Links:    hypercube.RandomLinkFaults(cube, seed, trial),
			DropRate: 0.02 * float64(trial%4),
		}
		if trial%2 == 1 {
			plan.Nodes = []hypercube.NodeFault{{Node: dests[trial%len(dests)], At: 0}}
		}
		jp := ncube.JitterParams{Params: p, Amount: 0.15, Seed: seed}
		res, err := ncube.RunFaultTolerantInstrumented(jp, cube, core.WSort, src, dests, 512, plan, ncube.Instrumentation{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		reached := 0
		for _, d := range dests {
			st, ok := res.Status[d]
			if !ok {
				t.Fatalf("trial %d: destination %v unaccounted", trial, d)
			}
			if st.Reached() {
				reached++
				if _, got := res.Recv[d]; !got {
					t.Fatalf("trial %d: %v reached without a receipt time", trial, d)
				}
			}
		}
		if reached < len(dests)*3/4 {
			t.Fatalf("trial %d: only %d/%d destinations reached", trial, reached, len(dests))
		}
	}
}
