package traffic

import (
	"runtime/debug"
	"testing"
)

// Pooled traffic runs allocate per-op bookkeeping, trees and results, but
// nothing per event: the session's calendar, network, tree executions and
// their node tables are reused across runs, and a run's data-carrying ops
// share one pool of payload blocks and message records, so after the
// first op has warmed it an allreduce allocates per op, not per message.
// The ceilings are the exact counts for the specs of the root package's
// TrafficSaturation6Cube and TrafficChaosFaulted5Cube benchmarks and of
// perfbench's two allreduce scenarios, measured in a fresh test process,
// so any new per-send or per-event allocation trips them.
func TestRunAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled sessions at random under -race")
	}
	// A collection empties the pools; keep it off while counting.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name string
		spec func() *Spec
		want float64
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
		}, 900},
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
		}, 2688},
		{"allreduce-hd-5cube", func() *Spec { return allReduceSpec("hd") }, 489},
		{"allreduce-ring-5cube", func() *Spec { return allReduceSpec("ring") }, 345},
	} {
		// Run canonicalizes its spec in place, so each call gets a fresh
		// one, as in the benchmarks.
		got := testing.AllocsPerRun(20, func() {
			if _, err := Run(tc.spec()); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.want {
			t.Errorf("%s: Run allocates %v objects per call, ceiling %v", tc.name, got, tc.want)
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
