package workload_test

import (
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/traffic"
)

// iterationAllocs counts the objects one warmed iteration of a figure
// sweep's worker allocates: build a 6-cube W-sort tree to 32 destinations
// in the worker's workspace, schedule it all-port there, and run it on the
// worker's own session.
func iterationAllocs() float64 {
	cube := topology.New(6, topology.HighToLow)
	perm := rand.New(rand.NewSource(1993)).Perm(cube.Nodes())
	var dests []topology.NodeID
	for _, v := range perm[:33] {
		if v != 0 && len(dests) < 32 {
			dests = append(dests, topology.NodeID(v))
		}
	}
	var ws core.Workspace
	s := ncube.NewOwnedSession(ncube.NCube2(core.AllPort), ncube.Instrumentation{})
	return testing.AllocsPerRun(20, func() {
		tr := ws.Build(cube, core.WSort, 0, dests)
		ws.NewSchedule(tr, core.AllPort)
		s.RunTree(tr, 4096)
	})
}

// A warmed sweep worker allocates nothing per instance, and the count
// depends on nothing that ran before it: it reads the same in a fresh
// process as after a traffic run and a collection, which empties the
// session pool the traffic engine borrows from. The worker takes nothing
// from that pool.
func TestWorkerIterationAllocs(t *testing.T) {
	const want = 0
	if os.Getenv("WORKLOAD_ALLOCS_FRESH") == "1" {
		if got := iterationAllocs(); got != want {
			t.Fatalf("fresh process: warmed worker iteration allocates %v objects, want %v", got, want)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestWorkerIterationAllocs$")
	cmd.Env = append(os.Environ(), "WORKLOAD_ALLOCS_FRESH=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fresh process: %v\n%s", err, out)
	}
	spec := &traffic.Spec{
		Dim:  6,
		Seed: 1993,
		Arrivals: &traffic.Arrivals{
			Kind: "poisson", Count: 48, RatePerMS: 8,
			Op: traffic.Template{Kind: traffic.KindMulticast, DestCount: 32, Bytes: 4096},
		},
	}
	if _, err := traffic.Run(spec); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if got := iterationAllocs(); got != want {
		t.Errorf("after traffic.Run: warmed worker iteration allocates %v objects, want %v", got, want)
	}
}
