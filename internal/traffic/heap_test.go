package traffic

import (
	"runtime"
	"testing"
)

// TestLongScenarioHeapBounded runs a thousand-op multicast scenario on a
// 10-cube, where each op's execution holds a cube-sized node table, and
// requires the heap left live after the run to stay near what a handful
// of ops in flight need: the session recycles a finished op's execution
// mid-run instead of keeping one per op until the scenario ends.
func TestLongScenarioHeapBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	spec := &Spec{
		Dim:  10,
		Seed: 3,
		Arrivals: &Arrivals{
			Kind: "poisson", Count: 1000, RatePerMS: 2,
			Op: Template{Kind: KindMulticast, DestCount: 16, Bytes: 256},
		},
	}
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// One op's execution on a 10-cube is about 50 KB; keeping all 1000
	// until the end leaves about 50 MB.
	const limit = 8 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > limit {
		t.Errorf("heap grew %.1f MB over a 1000-op scenario, limit %.1f MB", float64(grew)/(1<<20), float64(limit)/(1<<20))
	}
}
