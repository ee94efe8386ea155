package ncube

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/faults"
	"hypercube/internal/topology"
)

// TestSeededRunsPinned pins the outcome of the runs that consume seeded
// randomness while they execute: jittered software overheads in the
// distributed and fault-tolerant protocols, and the fault injector's
// per-message drop and truncation draws. fmt prints maps in key order, so
// the digest is a pure function of the results.
func TestSeededRunsPinned(t *testing.T) {
	cube := topology.New(6, topology.HighToLow)
	dests := make([]topology.NodeID, 0, 40)
	for v := 1; v < cube.Nodes(); v += 3 {
		dests = append(dests, topology.NodeID(v))
	}
	h := sha256.New()
	for _, a := range []core.Algorithm{core.UCube, core.WSort} {
		for i, seed := range []int64{0, -7, 1 << 62} {
			jp := JitterParams{Params: NCube2(core.AllPort), Amount: 0.4, Seed: seed}
			fmt.Fprintf(h, "%+v\n", RunDistributed(jp, cube, a, 0, dests, 1024))
			plan := faults.Plan{
				Seed:         seed + 1,
				Links:        faults.RandomLinks(cube, seed+int64(i), 6),
				DropRate:     0.15,
				TruncateRate: 0.1,
			}
			res, err := RunFaultTolerantInstrumented(jp, cube, a, 0, dests, 1024, plan, Instrumentation{})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%+v\n", res)
		}
	}
	const want = "871afec252ea66498fd9e165d49d75db87e8b6b5384d5afd6f71d45acd29149e"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
