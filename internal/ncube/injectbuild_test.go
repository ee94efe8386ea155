package ncube

import (
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/faults"
	"hypercube/internal/topology"
)

// FuzzInjectBuildMatchesInjectTree runs one seeded scenario of
// overlapping multicasts twice on a shared session, once injecting
// core.Build trees with InjectTree and once building them in the ops' own
// storage with InjectBuild: every op's Result must be identical, for ops
// with and without a done hook, under either port model, at one and two
// lanes, and on a network that drops messages on dead links.
func FuzzInjectBuildMatchesInjectTree(f *testing.F) {
	for _, seed := range []int64{1, 1993} {
		for port := uint8(0); port < 2; port++ {
			for lanes := uint8(1); lanes <= 2; lanes++ {
				f.Add(seed, port, lanes, false)
				f.Add(seed, port, lanes, true)
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, port, lanes uint8, lossy bool) {
		const dim, n = 5, 24
		cube := topology.New(dim, topology.HighToLow)
		p := NCube2([]core.PortModel{core.OnePort, core.AllPort}[port%2])
		p.Lanes = 1 + int(lanes%2)
		algs := core.Algorithms()
		run := func(build bool) []Result {
			rng := rand.New(rand.NewSource(seed))
			s := NewSession(p, cube, Instrumentation{})
			if lossy {
				dead := faults.NewSchedule()
				for v := topology.NodeID(0); v < 8; v++ {
					dead.AddLink(topology.Arc{From: v, Dim: int(v) % dim}, 0, 0, false)
				}
				s.SetFaults(dead)
			}
			got := make([]Result, n)
			kept := make([]*Result, n)
			for i := 0; i < n; i++ {
				i := i
				src := topology.NodeID(rng.Intn(cube.Nodes()))
				dests := randomDests(rng, dim, src, 1+rng.Intn(cube.Nodes()-1))
				a := algs[rng.Intn(len(algs))]
				var done func(*Result)
				if i%3 != 0 {
					done = func(r *Result) {
						got[i] = *r
						got[i].Recv = maps.Clone(r.Recv)
					}
				}
				s.At(event.Time(rng.Intn(400))*event.Microsecond, func() {
					var r *Result
					if build {
						r = s.InjectBuild(s.Now(), a, src, dests, 1024, done)
					} else {
						r = s.InjectTree(s.Now(), core.Build(cube, a, src, dests), 1024, done)
					}
					if done == nil {
						kept[i] = r
					}
				})
			}
			if err := s.Run(0, 0); err != nil {
				t.Fatalf("build=%v: session run: %v", build, err)
			}
			for i, r := range kept {
				if r != nil {
					got[i] = *r
				}
			}
			s.Release()
			return got
		}
		want, got := run(false), run(true)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("op %d: InjectBuild result\n%+v\nInjectTree result\n%+v", i, got[i], want[i])
			}
		}
	})
}

// TestDoneHookRecvMaps: two overlapping ops with done hooks each fill a
// Recv map of their own, and an op recycled from them hands its next tree
// one of those maps back, empty.
func TestDoneHookRecvMaps(t *testing.T) {
	cube := topology.New(5, topology.HighToLow)
	s := NewSession(NCube2(core.AllPort), cube, Instrumentation{})
	defer s.Release()
	small := []topology.NodeID{1, 2}
	large := randomDests(rand.New(rand.NewSource(5)), 5, 31, 30)
	later := []topology.NodeID{4, 9, 17}
	mapOf := func(r *Result) uintptr { return reflect.ValueOf(r.Recv).Pointer() }
	var used []uintptr
	check := func(name string, r *Result, dests []topology.NodeID) {
		used = append(used, mapOf(r))
		var keys []topology.NodeID
		for v := range r.Recv {
			keys = append(keys, v)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		want := append([]topology.NodeID(nil), dests...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !reflect.DeepEqual(keys, want) {
			t.Errorf("%s: Recv holds %v, want %v", name, keys, want)
		}
	}
	var rLarge *Result
	s.InjectBuild(0, core.WSort, 0, small, 1024, func(r *Result) {
		check("small op", r, small)
		if mapOf(r) == mapOf(rLarge) {
			t.Error("two live ops share one Recv map")
		}
	})
	rLarge = s.InjectBuild(0, core.UCube, 31, large, 1024, func(r *Result) { check("large op", r, large) })
	s.At(50*event.Millisecond, func() {
		r := s.InjectBuild(s.Now(), core.Combine, 3, later, 1024, func(r *Result) { check("recycled op", r, later) })
		if len(r.Recv) != 0 {
			t.Errorf("recycled op's Recv map holds %d entries at injection", len(r.Recv))
		}
		if m := mapOf(r); m != used[0] && m != used[1] {
			t.Error("recycled op did not reuse a finished op's Recv map")
		}
	})
	if err := s.Run(0, 0); err != nil {
		t.Fatal(err)
	}
	if len(used) != 3 {
		t.Fatalf("%d done hooks fired, want 3", len(used))
	}
}
