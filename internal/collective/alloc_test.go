package collective

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/ncube"
)

// Every collective runs on the one executor, whose message records and
// payload blocks cycle through a pool, so a standalone call allocates its
// session-independent setup — the Result, the schedule state, the data
// collectives' expectation and one copy of the input — plus the pool's
// high-water mark of records and blocks, and nothing per message beyond
// that. The ceilings are the exact counts on a 5-cube (1 KB blocks for the
// timing-only collectives, 32-element blocks for the data ones), measured
// in a fresh test process, so a per-message closure or payload copy
// creeping back into a schedule trips them.
func TestDataCollectiveAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled sessions at random under -race")
	}
	// A collection empties the session pool; keep it off while counting.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := cube(5)
	in := RandomData(1993, c.Nodes(), c.Nodes()*32)
	rng := rand.New(rand.NewSource(5))
	tr := core.Build(c, core.WSort, 3, randomMembers(rng, c, 3, 16))
	dataRun := func(f func(p ncube.Params) (DataResult, error)) func(p ncube.Params) error {
		return func(p ncube.Params) error { _, err := f(p); return err }
	}
	timingRun := func(f func(p ncube.Params) Result) func(p ncube.Params) error {
		return func(p ncube.Params) error { f(p); return nil }
	}
	for _, tc := range []struct {
		name             string
		run              func(p ncube.Params) error
		allPort, onePort float64
	}{
		{"Scatter", timingRun(func(p ncube.Params) Result { return Scatter(p, c, 3, 1024) }), 21, 44},
		{"Gather", timingRun(func(p ncube.Params) Result { return Gather(p, c, 3, 1024) }), 45, 45},
		{"Reduce", timingRun(func(p ncube.Params) Result { return Reduce(p, c, 3, 1024, 10) }), 45, 45},
		{"Barrier", timingRun(func(p ncube.Params) Result { return Barrier(p, c) }), 80, 80},
		{"AllGather", timingRun(func(p ncube.Params) Result { return AllGather(p, c, 1024) }), 80, 80},
		{"AllReduce", timingRun(func(p ncube.Params) Result { return AllReduce(p, c, 1024, 10) }), 80, 80},
		{"ReduceTree", timingRun(func(p ncube.Params) Result { return ReduceTree(p, tr, 1024, 10) }), 33, 33},
		{"AllReduceHD", dataRun(func(p ncube.Params) (DataResult, error) { return AllReduceHD(p, c, in, 0) }), 279, 279},
		{"AllReduceRing", dataRun(func(p ncube.Params) (DataResult, error) { return AllReduceRing(p, c, in, 0) }), 128, 128},
		{"ReduceScatter", dataRun(func(p ncube.Params) (DataResult, error) { return ReduceScatter(p, c, in, 0) }), 280, 280},
		{"AllToAll", dataRun(func(p ncube.Params) (DataResult, error) { return AllToAll(p, c, in) }), 290, 290},
		{"ReduceData", dataRun(func(p ncube.Params) (DataResult, error) { return ReduceData(p, c, 3, in, 10) }), 74, 74},
	} {
		for _, pc := range []struct {
			pm   core.PortModel
			want float64
		}{{core.AllPort, tc.allPort}, {core.OnePort, tc.onePort}} {
			p := params(pc.pm)
			got := testing.AllocsPerRun(20, func() {
				if err := tc.run(p); err != nil {
					t.Fatal(err)
				}
			})
			if got > pc.want {
				t.Errorf("%s %v allocates %v objects per call, ceiling %v", tc.name, pc.pm, got, pc.want)
			}
		}
	}
}
