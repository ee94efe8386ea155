package traffic

import (
	"flag"
	"os"
	"os/exec"
	"runtime"
	"testing"
)

// allocChild is the argument that makes TestRunAllocCeiling count in the
// process it runs in.
const allocChild = "count-allocs"

// Pooled traffic runs allocate per-op bookkeeping and results, but nothing
// per event: the session's calendar, network, tree executions with their
// trees, node tables and Recv maps are reused across ops and runs, and a
// run's data-carrying ops share one pool of payload blocks, input blocks
// and message records, so after the first op has warmed it an allreduce
// allocates per op, not per message. The ceilings are the exact
// steady-state counts per run for the specs of the root package's
// TrafficSaturation6Cube and TrafficChaosFaulted5Cube benchmarks and of
// perfbench's two allreduce scenarios, so any new per-send or per-event
// allocation trips them; the allreduce specs also carry a bytes ceiling,
// which sees the payload storage an object count does not.
//
// Free lists keep growing over a process's first runs, and at more than
// one P a sync.Pool miss can hand a run a fresh session, so the counts
// are taken in a child process at GOMAXPROCS=1 with the collector off,
// after a fixed warm-up: they depend on nothing that ran before.
func TestRunAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled sessions at random under -race")
	}
	if flag.Arg(0) != allocChild {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRunAllocCeiling$", "-test.count=1", "-test.v", allocChild)
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1", "GOGC=off")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("counting process: %v\n%s", err, out)
		}
		t.Logf("counting process:\n%s", out)
		return
	}
	const warm, runs = 30, 20
	for _, tc := range []struct {
		name      string
		spec      func() *Spec
		objs, kib uint64 // ceilings per run; kib 0 means none
	}{
		{"saturation-6cube", func() *Spec {
			return &Spec{
				Dim:  6,
				Seed: 1993,
				Arrivals: &Arrivals{
					Kind: "poisson", Count: 48, RatePerMS: 8,
					Op: Template{Kind: KindMulticast, DestCount: 32, Bytes: 4096},
				},
			}
		}, 300, 0},
		{"chaos-faulted-5cube", func() *Spec {
			return &Spec{
				Dim:  5,
				Seed: 1993,
				Arrivals: &Arrivals{
					Kind: "poisson", Count: 12, RatePerMS: 4,
					Op: Template{Kind: KindFTMulticast, DestCount: 6, Bytes: 2048},
				},
				Faults: []FaultEvent{{Kind: FaultLink, Count: 2, Seed: 5}},
			}
		}, 2672, 0},
		{"allreduce-hd-5cube", func() *Spec { return allReduceSpec("hd") }, 459, 688},
		{"allreduce-ring-5cube", func() *Spec { return allReduceSpec("ring") }, 315, 764},
	} {
		// Run canonicalizes its spec in place, so each call gets a fresh
		// one, as in the benchmarks.
		run := func() {
			if _, err := Run(tc.spec()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < warm; i++ {
			run()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		objs := (after.Mallocs - before.Mallocs) / runs
		kib := (after.TotalAlloc - before.TotalAlloc) / runs / 1024
		t.Logf("%s: %d objects, %d KiB per run", tc.name, objs, kib)
		if objs > tc.objs {
			t.Errorf("%s: Run allocates %d objects per call, ceiling %d", tc.name, objs, tc.objs)
		}
		if tc.kib > 0 && kib > tc.kib {
			t.Errorf("%s: Run allocates %d KiB per call, ceiling %d", tc.name, kib, tc.kib)
		}
	}
}

// allReduceSpec is perfbench's allreduce scenario: 8 payload-verified
// allreduce arrivals of 256-byte blocks on a 5-cube.
func allReduceSpec(alg string) *Spec {
	return &Spec{
		Dim:  5,
		Seed: 1993,
		Arrivals: &Arrivals{
			Kind: "poisson", Count: 8, RatePerMS: 1,
			Op: Template{Kind: KindAllReduce, Algorithm: alg, Bytes: 256},
		},
	}
}
