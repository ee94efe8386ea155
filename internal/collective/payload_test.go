package collective

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
)

// The analytic-expectation goldens: every dim 2..6, three seeds, both port
// models, every data-carrying variant. The standalone entry points verify
// internally; these tests assert the verification passes and the schedules
// complete.
func TestDataCollectiveGoldens(t *testing.T) {
	for n := 2; n <= 6; n++ {
		c := cube(n)
		for _, pm := range []core.PortModel{core.AllPort, core.OnePort} {
			p := params(pm)
			for seed := int64(1); seed <= 3; seed++ {
				in := RandomData(seed*100+int64(n), c.Nodes(), c.Nodes()*3)
				run := func(name string, f func() (DataResult, error)) {
					dr, err := f()
					if err != nil {
						t.Fatalf("n=%d pm=%v seed=%d %s: %v", n, pm, seed, name, err)
					}
					if err := dr.complete(c.Nodes()); err != nil {
						t.Fatalf("n=%d pm=%v seed=%d %s: %v", n, pm, seed, name, err)
					}
				}
				run("reduce-scatter", func() (DataResult, error) { return ReduceScatter(p, c, in, 10) })
				run("allreduce-hd", func() (DataResult, error) { return AllReduceHD(p, c, in, 10) })
				run("allreduce-ring", func() (DataResult, error) { return AllReduceRing(p, c, in, 10) })
				run("alltoall", func() (DataResult, error) { return AllToAll(p, c, in) })
				root := topology.NodeID(seed) % topology.NodeID(c.Nodes())
				run("reduce-data", func() (DataResult, error) { return ReduceData(p, c, root, in, 10) })
			}
		}
	}
}

// Attaching payloads must not perturb the event schedule: the data and
// timing-only collectives run the same declarations on the same executor.
// ReduceData runs Reduce's exact convergecast with message size
// block*ElemBytes, so its timing Result must equal the timing-only Reduce's
// field for field.
func checkReduceDataMatchesReduce(t *testing.T, p ncube.Params, c topology.Cube, root topology.NodeID, tc event.Time, block int) {
	t.Helper()
	dr, err := ReduceData(p, c, root, RandomData(7, c.Nodes(), block), tc)
	if err != nil {
		t.Fatal(err)
	}
	if want := Reduce(p, c, root, block*ElemBytes, tc); !reflect.DeepEqual(dr.Result, want) {
		t.Errorf("reduce-data diverged from Reduce\n got %+v\nwant %+v", dr.Result, want)
	}
}

// AllToAll's pairwise exchange ships a constant N/2 blocks across
// ascending dimensions — the butterfly AllReduce's schedule with message
// size (N/2)*block*ElemBytes and zero compute. Timing must match exactly.
func checkAllToAllMatchesButterfly(t *testing.T, p ncube.Params, c topology.Cube, block int) {
	t.Helper()
	nodes := c.Nodes()
	dr, err := AllToAll(p, c, RandomData(11, nodes, nodes*block))
	if err != nil {
		t.Fatal(err)
	}
	if want := AllReduce(p, c, nodes/2*block*ElemBytes, 0); !reflect.DeepEqual(dr.Result, want) {
		t.Errorf("alltoall diverged from the butterfly\n got %+v\nwant %+v", dr.Result, want)
	}
}

func TestReduceDataTimingMatchesReduce(t *testing.T) {
	for n := 1; n <= 6; n++ {
		c := cube(n)
		for _, pm := range []core.PortModel{core.AllPort, core.OnePort} {
			t.Run(fmt.Sprintf("n=%d/pm=%v", n, pm), func(t *testing.T) {
				checkReduceDataMatchesReduce(t, params(pm), c, topology.NodeID(c.Nodes()-1), 25, 64)
			})
		}
	}
}

func TestAllToAllTimingMatchesButterfly(t *testing.T) {
	for n := 1; n <= 6; n++ {
		c := cube(n)
		for _, pm := range []core.PortModel{core.AllPort, core.OnePort} {
			t.Run(fmt.Sprintf("n=%d/pm=%v", n, pm), func(t *testing.T) {
				checkAllToAllMatchesButterfly(t, params(pm), c, 5)
			})
		}
	}
}

// FuzzCollectiveTimingMatches runs both timing-match checks at any
// dimension, root, port model, lane count, compute charge and block size.
func FuzzCollectiveTimingMatches(f *testing.F) {
	// The seeds are the two tests' fixed cases: dims 1–6 on both port
	// models with one lane, root N-1 and tCompute 25, at 64-element
	// (ReduceData) and 5-element (AllToAll) blocks.
	for n := 1; n <= 6; n++ {
		last := uint16(1)<<n - 1
		for _, onePort := range []bool{false, true} {
			f.Add(uint8(n-1), last, onePort, uint8(0), uint16(25), uint8(63))
			f.Add(uint8(n-1), last, onePort, uint8(0), uint16(25), uint8(4))
		}
	}
	// Inputs map onto dimension 1+dim%6, lanes 1+lanes%2 and block size
	// 1+block%64 elements.
	f.Fuzz(func(t *testing.T, dim uint8, root uint16, onePort bool, lanes uint8, tCompute uint16, block uint8) {
		c := cube(1 + int(dim)%6)
		pm := core.AllPort
		if onePort {
			pm = core.OnePort
		}
		p := params(pm)
		p.Lanes = 1 + int(lanes)%2
		b := 1 + int(block)%64
		checkReduceDataMatchesReduce(t, p, c, topology.NodeID(int(root)%c.Nodes()), event.Time(tCompute), b)
		checkAllToAllMatchesButterfly(t, p, c, b)
	})
}

func TestExpectedHelpers(t *testing.T) {
	in := [][]float64{
		{1, 2, 3, 4},
		{10, 20, 30, 40},
		{100, 200, 300, 400},
		{1000, 2000, 3000, 4000},
	}
	sum := []float64{1111, 2222, 3333, 4444}
	ar := ExpectedAllReduce(in)
	for v := range ar {
		if !reflect.DeepEqual(ar[v], sum) {
			t.Fatalf("allreduce node %d: %v", v, ar[v])
		}
	}
	rs := ExpectedReduceScatter(in)
	for v := range rs {
		if !reflect.DeepEqual(rs[v], sum[v:v+1]) {
			t.Fatalf("reduce-scatter node %d: %v", v, rs[v])
		}
	}
	a2a := ExpectedAllToAll(in)
	want := [][]float64{
		{1, 10, 100, 1000},
		{2, 20, 200, 2000},
		{3, 30, 300, 3000},
		{4, 40, 400, 4000},
	}
	if !reflect.DeepEqual(a2a, want) {
		t.Fatalf("alltoall: %v", a2a)
	}
}

func TestVerifyDataNamesDivergence(t *testing.T) {
	got := [][]float64{{1, 2}, {3, 5}}
	want := [][]float64{{1, 2}, {3, 4}}
	err := VerifyData(got, want)
	if err == nil {
		t.Fatal("divergence not detected")
	}
	if got, want := err.Error(), "node 1 element 1"; !strings.Contains(got, want) {
		t.Fatalf("error %q does not name the divergence", got)
	}
	if err := VerifyData(want, want); err != nil {
		t.Fatalf("clean compare: %v", err)
	}
}

func TestRandomDataIntegerValued(t *testing.T) {
	d := RandomData(42, 8, 16)
	if len(d) != 8 || len(d[0]) != 16 {
		t.Fatalf("shape %dx%d", len(d), len(d[0]))
	}
	for v := range d {
		for i, x := range d[v] {
			if x != float64(int(x)) || x < -512 || x >= 512 {
				t.Fatalf("node %d elem %d: %v not an integer in [-512,512)", v, i, x)
			}
		}
	}
	if !reflect.DeepEqual(d, RandomData(42, 8, 16)) {
		t.Fatal("RandomData not deterministic")
	}
}

// The standalone entry points copy their input once and reduce the copy:
// the caller's vectors come back element-identical, so a caller may reuse
// one input across calls, as the fuzz target does.
func TestDataEntryPointsLeaveInputUntouched(t *testing.T) {
	for n := 1; n <= 5; n++ {
		c := cube(n)
		for _, pm := range []core.PortModel{core.AllPort, core.OnePort} {
			p := params(pm)
			in := RandomData(int64(n), c.Nodes(), c.Nodes()*3)
			orig := copyVecs(in)
			root := topology.NodeID(c.Nodes() - 1)
			for name, run := range map[string]func() (DataResult, error){
				"reduce-scatter": func() (DataResult, error) { return ReduceScatter(p, c, in, 10) },
				"allreduce-hd":   func() (DataResult, error) { return AllReduceHD(p, c, in, 10) },
				"allreduce-ring": func() (DataResult, error) { return AllReduceRing(p, c, in, 10) },
				"alltoall":       func() (DataResult, error) { return AllToAll(p, c, in) },
				"reduce-data":    func() (DataResult, error) { return ReduceData(p, c, root, in, 10) },
			} {
				if _, err := run(); err != nil {
					t.Fatalf("n=%d pm=%v %s: %v", n, pm, name, err)
				}
				if err := VerifyData(in, orig); err != nil {
					t.Fatalf("n=%d pm=%v %s changed its input: %v", n, pm, name, err)
				}
			}
		}
	}
}

// Each substrate launch, on a fresh session of its own, must reproduce its
// standalone twin exactly — Data, Makespan, Messages and Finish — under
// both port models and on one and two lanes. The launches share one Pool,
// so every launch after the first runs on blocks and message records the
// earlier ones returned.
func TestDataOnMatchesStandalone(t *testing.T) {
	for n := 1; n <= 5; n++ {
		c := cube(n)
		for _, pm := range []core.PortModel{core.AllPort, core.OnePort} {
			for _, lanes := range []int{1, 2} {
				p := params(pm)
				p.Lanes = lanes
				in := RandomData(int64(10*n+lanes), c.Nodes(), c.Nodes()*2)
				root := topology.NodeID(c.Nodes() / 2)
				pool := new(Pool)
				for _, tc := range []struct {
					name       string
					standalone func() (DataResult, error)
					on         func(sub Substrate, in [][]float64) *DataResult
				}{
					{"reduce-scatter",
						func() (DataResult, error) { return ReduceScatter(p, c, in, 10) },
						func(sub Substrate, in [][]float64) *DataResult { return ReduceScatterOn(sub, in, 10) }},
					{"allreduce-hd",
						func() (DataResult, error) { return AllReduceHD(p, c, in, 10) },
						func(sub Substrate, in [][]float64) *DataResult { return AllReduceHDOn(sub, in, 10) }},
					{"allreduce-ring",
						func() (DataResult, error) { return AllReduceRing(p, c, in, 10) },
						func(sub Substrate, in [][]float64) *DataResult { return AllReduceRingOn(sub, in, 10) }},
					{"alltoall",
						func() (DataResult, error) { return AllToAll(p, c, in) },
						func(sub Substrate, in [][]float64) *DataResult { return AllToAllOn(sub, in) }},
					{"reduce-data",
						func() (DataResult, error) { return ReduceData(p, c, root, in, 10) },
						func(sub Substrate, in [][]float64) *DataResult { return ReduceDataOn(sub, root, in, 10) }},
				} {
					want, err := tc.standalone()
					if err != nil {
						t.Fatalf("n=%d pm=%v lanes=%d %s: %v", n, pm, lanes, tc.name, err)
					}
					s := ncube.NewSession(p, c, ncube.Instrumentation{})
					var done *Result
					sub := Substrate{Queue: s.Queue(), Net: s.Network(), Params: p, Pool: pool,
						OnDone: func(r Result) { done = &r }}
					got := tc.on(sub, copyVecs(in))
					if err := s.Run(0, 0); err != nil {
						t.Fatalf("n=%d pm=%v lanes=%d %s: %v", n, pm, lanes, tc.name, err)
					}
					s.Release()
					if done == nil {
						t.Fatalf("n=%d pm=%v lanes=%d %s: OnDone never fired", n, pm, lanes, tc.name)
					}
					if err := VerifyData(got.Data, want.Data); err != nil {
						t.Errorf("n=%d pm=%v lanes=%d %s: Data: %v", n, pm, lanes, tc.name, err)
					}
					if got.Makespan != want.Makespan || got.Messages != want.Messages ||
						!reflect.DeepEqual(got.Finish, want.Finish) {
						t.Errorf("n=%d pm=%v lanes=%d %s: launch diverged from standalone\n got %+v\nwant %+v",
							n, pm, lanes, tc.name, got.Result, want.Result)
					}
				}
			}
		}
	}
}

// Pool.RandomData draws RandomData's exact values into a recycled block,
// whatever the block held: the traffic engine's pooled inputs are thereby
// tied to the data digest TestSeededSpecsPinned reads from RandomData.
func TestPoolRandomDataMatchesRandomData(t *testing.T) {
	const nodes, elems = 16, 48
	var p Pool
	first, block := p.RandomData(1, nodes, elems)
	if want := RandomData(1, nodes, elems); !reflect.DeepEqual(first, want) {
		t.Fatal("fresh block: Pool.RandomData differs from RandomData")
	}
	for i := range block {
		block[i] = -1e9 // dirty the block before it goes back
	}
	p.Recycle(block)
	for _, seed := range []int64{1, 7, 1993} {
		in, b := p.RandomData(seed, nodes, elems)
		if &b[0] != &block[0] {
			t.Fatalf("seed %d: drew into a new block instead of the recycled one", seed)
		}
		if want := RandomData(seed, nodes, elems); !reflect.DeepEqual(in, want) {
			t.Fatalf("seed %d: recycled block: Pool.RandomData differs from RandomData", seed)
		}
		for v := range in {
			if cap(in[v]) != elems {
				t.Fatalf("seed %d: vector %d has capacity %d, want %d", seed, v, cap(in[v]), elems)
			}
		}
		for i := range b {
			b[i] = float64(i)
		}
		p.Recycle(b)
	}
}
