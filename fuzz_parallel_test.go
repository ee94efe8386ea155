// Native fuzz target for the parallel executor's equivalence contract:
// for ANY machine configuration, multicast tree, and worker count the
// fuzzer can dream up, the parallel path must reproduce the sequential
// result byte for byte. This is the randomized face of the differential
// test wall (parallel_diff_test.go holds the curated one).
package hypercube_test

import (
	"encoding/json"
	"testing"

	"hypercube"
	"hypercube/internal/core"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
)

func FuzzParallelEquivalence(f *testing.F) {
	f.Add(5, 0, int64(1), 8, 4, 512, false)
	f.Add(4, 1, int64(9), 3, 2, 64, true)
	f.Add(6, 2, int64(42), 30, 8, 4096, false)
	f.Add(3, 3, int64(7), 1, 1, 1, true)
	f.Add(7, 5, int64(1993), 50, 16, 1024, false)
	f.Fuzz(func(t *testing.T, dim, algIdx int, seed int64, destCount, workers, bytes int, onePort bool) {
		// Clamp the raw fuzz inputs into the simulator's domain; the
		// interesting space is the cross product, not boundary rejection.
		if dim < 1 {
			dim = -dim % 8
		}
		dim = dim%8 + 1 // 1..8
		cube := topology.New(dim, topology.HighToLow)
		algs := core.Algorithms()
		alg := algs[((algIdx%len(algs))+len(algs))%len(algs)]
		if destCount < 0 {
			destCount = -destCount
		}
		destCount = destCount%cube.Nodes() + 1
		if destCount > cube.Nodes()-1 {
			destCount = cube.Nodes() - 1
		}
		workers = ((workers%8)+8)%8 + 1 // 1..8
		if bytes < 0 {
			bytes = -bytes
		}
		bytes = bytes%8192 + 1
		port := core.AllPort
		if onePort {
			port = core.OnePort
		}

		src := topology.NodeID(int(seed) & (cube.Nodes() - 1))
		if src < 0 {
			src = 0
		}
		dests := hypercube.RandomDests(cube, seed, src, destCount)
		tr := core.Build(cube, alg, src, dests)
		p := ncube.NCube2(port)

		want := ncube.Run(p, tr, bytes)
		// A single run with the worker count set: it runs on one
		// goroutine whatever the setting.
		pw := p
		pw.Workers = workers
		got := ncube.Run(pw, tr, bytes)
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if string(wb) != string(gb) {
			t.Fatalf("dim=%d alg=%v workers=%d: single-run parallel result diverges\nseq: %s\npar: %s", dim, alg, workers, wb, gb)
		}
		// Batch path: a 3-run batch of the same tree must yield three
		// copies of the sequential result.
		for i, r := range ncube.RunParallelInstrumented(pw, []*core.Tree{tr, tr, tr}, bytes, ncube.Instrumentation{}) {
			rb, _ := json.Marshal(r)
			if string(rb) != string(wb) {
				t.Fatalf("dim=%d alg=%v workers=%d: batch run %d diverges", dim, alg, workers, i)
			}
		}
	})
}
