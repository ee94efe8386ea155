package collective

import (
	"runtime/debug"
	"testing"

	"hypercube/internal/core"
)

// A standalone data collective allocates its expectation, its one copy of
// the input, the schedule state and the payload blocks and message records
// of its own pool, which a warmed pool reuses; it allocates nothing per
// message beyond that pool's high-water mark. The ceilings are the exact
// counts on a 5-cube with 32-element blocks, measured in a fresh test
// process, so a per-message closure or payload copy creeping back into the
// schedules trips them.
func TestDataCollectiveAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled sessions at random under -race")
	}
	// A collection empties the session pool; keep it off while counting.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := cube(5)
	p := params(core.AllPort)
	in := RandomData(1993, c.Nodes(), c.Nodes()*32)
	for _, tc := range []struct {
		name string
		run  func() (DataResult, error)
		want float64
	}{
		{"AllReduceHD", func() (DataResult, error) { return AllReduceHD(p, c, in, 0) }, 279},
		{"AllReduceRing", func() (DataResult, error) { return AllReduceRing(p, c, in, 0) }, 128},
		{"ReduceScatter", func() (DataResult, error) { return ReduceScatter(p, c, in, 0) }, 280},
		{"AllToAll", func() (DataResult, error) { return AllToAll(p, c, in) }, 290},
	} {
		got := testing.AllocsPerRun(20, func() {
			if _, err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.want {
			t.Errorf("%s allocates %v objects per call, ceiling %v", tc.name, got, tc.want)
		}
	}
}
