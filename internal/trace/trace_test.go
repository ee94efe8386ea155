package trace

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/wormhole"
)

var _ wormhole.Tracer = (*Recorder)(nil)

func runTraced(t *testing.T, a core.Algorithm, dests []topology.NodeID) (*Recorder, topology.Cube) {
	t.Helper()
	c := topology.New(4, topology.HighToLow)
	var rec Recorder
	tr := core.Build(c, a, 0, dests)
	ncube.RunInstrumented(ncube.NCube2(core.AllPort), tr, 1024, ncube.Instrumentation{Tracer: &rec})
	return &rec, c
}

var fig3Dests = []topology.NodeID{1, 3, 5, 7, 11, 12, 14, 15}

// W-sort on the Figure 3 instance: no blocking incidents, and every
// recorded interval closes.
func TestWSortTraceClean(t *testing.T) {
	rec, _ := runTraced(t, core.WSort, fig3Dests)
	if len(rec.Blocks) != 0 {
		t.Errorf("W-sort recorded %d blocks", len(rec.Blocks))
	}
	if len(rec.open) != 0 {
		t.Errorf("%d intervals left open", len(rec.open))
	}
	if len(rec.Intervals) == 0 {
		t.Fatal("no intervals recorded")
	}
	for _, iv := range rec.Intervals {
		if iv.End <= iv.Start {
			t.Errorf("empty interval %+v", iv)
		}
	}
}

// U-cube on all-port records header blocking (the channel-3 serialization
// at node 0111).
func TestUCubeTraceShowsBlocking(t *testing.T) {
	rec, _ := runTraced(t, core.UCube, fig3Dests)
	if len(rec.Blocks) == 0 {
		t.Error("U-cube trace shows no blocking")
	}
}

// Each channel carries each message once: interval count equals total hop
// count of the tree's unicasts.
func TestIntervalCountMatchesHops(t *testing.T) {
	rec, c := runTraced(t, core.Maxport, fig3Dests)
	tr := core.Build(c, core.Maxport, 0, fig3Dests)
	hops := 0
	for _, s := range tr.Unicasts() {
		hops += topology.Distance(s.From, s.To)
	}
	if len(rec.Intervals) != hops {
		t.Errorf("intervals = %d, want %d", len(rec.Intervals), hops)
	}
}

func TestUtilization(t *testing.T) {
	rec, _ := runTraced(t, core.WSort, fig3Dests)
	util := rec.Utilization()
	if len(util) != rec.ChannelsUsed() {
		t.Errorf("utilization channels %d != used %d", len(util), rec.ChannelsUsed())
	}
	for arc, u := range util {
		if u <= 0 || u > 1.0000001 {
			t.Errorf("utilization of %v = %v out of range", arc, u)
		}
	}
}

func TestGanttRendering(t *testing.T) {
	rec, c := runTraced(t, core.UCube, fig3Dests)
	g := rec.Gantt(c, 40)
	if !strings.Contains(g, "channel occupancy") {
		t.Errorf("missing header:\n%s", g)
	}
	if !strings.Contains(g, "#") {
		t.Errorf("no occupancy marks:\n%s", g)
	}
	if !strings.Contains(g, "*") {
		t.Errorf("no blocking marks for U-cube:\n%s", g)
	}
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != rec.ChannelsUsed()+1 {
		t.Errorf("gantt rows = %d, want %d", len(lines)-1, rec.ChannelsUsed())
	}
}

func TestGanttEmpty(t *testing.T) {
	var rec Recorder
	c := topology.New(3, topology.HighToLow)
	if got := rec.Gantt(c, 20); got != "(no channel activity)\n" {
		t.Errorf("empty gantt = %q", got)
	}
}

func TestRecorderPanicsOnProtocolViolation(t *testing.T) {
	var rec Recorder
	arc := topology.Arc{From: 0, Dim: 1}
	rec.ChannelAcquired(arc, 0, 2, 5)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double acquire did not panic")
			}
		}()
		rec.ChannelAcquired(arc, 0, 2, 6)
	}()
	rec.ChannelReleased(arc, 9)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double release did not panic")
			}
		}()
		rec.ChannelReleased(arc, 10)
	}()
}

func TestCloseFinalizesOpenIntervals(t *testing.T) {
	var rec Recorder
	arc := topology.Arc{From: 1, Dim: 0}
	rec.ChannelAcquired(arc, 1, 0, 3)
	rec.Close(12)
	if len(rec.Intervals) != 1 || rec.Intervals[0].End != 12 {
		t.Errorf("Close mishandled: %+v", rec.Intervals)
	}
	if len(rec.open) != 0 {
		t.Error("open map not drained")
	}
}

// Physical mutual exclusion: under heavy random traffic (every algorithm,
// overlapping multicasts), per-channel occupancy intervals never overlap —
// a channel has exactly one owner at a time. This validates the simulator's
// core wormhole invariant end to end.
func TestChannelMutualExclusionUnderStress(t *testing.T) {
	c := topology.New(5, topology.HighToLow)
	var rec Recorder
	// Overlap two multicasts from different sources in one network by
	// merging their trees into one (legal for tracing purposes: the
	// union is not a tree, so drive the network directly).
	q, net := newStressNet(&rec, c)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		from := topology.NodeID(rng.Intn(32))
		to := topology.NodeID(rng.Intn(32))
		at := event.Time(rng.Intn(2000)) * event.Microsecond
		q.At(at, func() { net.Send(from, to, 1+rng.Intn(4096), nil) })
	}
	q.MustRun(0, 0)
	rec.Close(q.Now())
	byArc := map[topology.Arc][]Interval{}
	for _, iv := range rec.Intervals {
		byArc[iv.Arc] = append(byArc[iv.Arc], iv)
	}
	for arc, ivs := range byArc {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].Start < ivs[i-1].End {
				t.Fatalf("overlap on %v: [%v,%v] then [%v,%v]",
					arc, ivs[i-1].Start, ivs[i-1].End, ivs[i].Start, ivs[i].End)
			}
		}
	}
	if !net.Idle() {
		t.Error("network not idle after stress")
	}
}

func newStressNet(rec *Recorder, c topology.Cube) (*event.Queue, *wormhole.Network) {
	q := &event.Queue{}
	net := wormhole.New(q, c, wormhole.Config{
		THop:  2 * event.Microsecond,
		TByte: 450,
	})
	net.SetTracer(rec)
	return q, net
}

func TestSpan(t *testing.T) {
	var rec Recorder
	a1 := topology.Arc{From: 0, Dim: 0}
	a2 := topology.Arc{From: 1, Dim: 1}
	rec.ChannelAcquired(a1, 0, 1, 10)
	rec.ChannelReleased(a1, 20)
	rec.ChannelAcquired(a2, 1, 3, 5)
	rec.ChannelReleased(a2, 15)
	start, end := rec.Span()
	if start != 5 || end != 20 {
		t.Errorf("span = %v..%v", start, end)
	}
}
