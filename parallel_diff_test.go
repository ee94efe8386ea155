// The sequential-equivalence test wall: every batch surface this
// repository exposes — figure workloads, batch multicast runs,
// fault-tolerant protocol runs — is replayed at workers {1, 2, 4, 8},
// asserting byte-identical results and metrics invariance, and every
// traffic scenario family (data-carrying and faulted included) is run
// twice on recycled sessions, asserting byte-identical results. The wall
// is the proof obligation behind ncube.Params.Workers' contract: worker
// count can never influence a simulated outcome.
package hypercube_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"hypercube"
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/metrics"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/traffic"
	"hypercube/internal/workload"
)

var wallWorkers = []int{1, 2, 4, 8}

// encode canonicalizes any result to comparable bytes. Snapshot maps
// marshal with sorted keys, so equal states encode identically.
func encode(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWallFigureWorkloads replays the delay experiments behind the
// Figure 11/12-style tables (small trial counts keep the wall fast) and
// requires byte-identical rendered tables and metric snapshots at every
// worker count.
func TestWallFigureWorkloads(t *testing.T) {
	build := func(stat workload.DelayStat, port core.PortModel, workers int) (string, string) {
		reg := metrics.New()
		p := ncube.NCube2(port)
		p.Workers = workers
		tb := workload.Delay(workload.DelayConfig{
			Dim:        5,
			Trials:     5,
			Seed:       1993,
			Bytes:      1024,
			Params:     p,
			Stat:       stat,
			Algorithms: []core.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort},
			DestCounts: []int{1, 7, 15, 31},
			Workers:    1, // point-level serialism; the batch runner is under test
			Metrics:    reg,
		})
		return tb.Render(), encode(t, reg.Snapshot())
	}
	for _, stat := range []workload.DelayStat{workload.AvgDelay, workload.MaxDelay} {
		for _, port := range []core.PortModel{core.OnePort, core.AllPort} {
			wantTable, wantMetrics := build(stat, port, 1)
			for _, workers := range wallWorkers[1:] {
				gotTable, gotMetrics := build(stat, port, workers)
				if gotTable != wantTable {
					t.Fatalf("stat=%v port=%v workers=%d: table diverges\n--- want\n%s\n--- got\n%s",
						stat, port, workers, wantTable, gotTable)
				}
				if gotMetrics != wantMetrics {
					t.Fatalf("stat=%v port=%v workers=%d: metric snapshot diverges\nwant %s\ngot  %s",
						stat, port, workers, wantMetrics, gotMetrics)
				}
			}
		}
	}
}

// wallSpecs builds one traffic spec per scenario family: a dependency mix,
// a Poisson data-carrying allreduce stream, a faulted fault-tolerant
// multicast stream under timed link/node chaos, a group-phase collective
// round, a one-port multicast stream on two virtual-channel lanes, plain
// one-port multicasts losing messages to timed link faults, and the
// remaining collective kinds (gather, allgather, reduce-scatter,
// alltoall) on one network.
func wallSpecs() map[string]func() *hypercube.TrafficSpec {
	parse := func(s string) func() *hypercube.TrafficSpec {
		return func() *hypercube.TrafficSpec {
			spec, err := traffic.Parse([]byte(s))
			if err != nil {
				panic(err)
			}
			return spec
		}
	}
	return map[string]func() *hypercube.TrafficSpec{
		"multicast-mix": parse(`{"dim":5,"ops":[
			{"id":"a","kind":"multicast","src":0,"dests":[3,9,17,30],"bytes":1024},
			{"id":"b","kind":"scatter","src":31,"at_us":40},
			{"id":"c","kind":"broadcast","src":7,"after":["a"],"delay_us":25}]}`),
		"poisson-allreduce-data": parse(`{"dim":4,"seed":21,"arrivals":{
			"kind":"poisson","count":10,"rate_per_ms":6,
			"op":{"kind":"allreduce","bytes":512}}}`),
		"chaos-fault-tolerant": parse(`{"dim":4,"seed":5,"arrivals":{
			"kind":"poisson","count":8,"rate_per_ms":5,
			"op":{"kind":"fault-tolerant-multicast","dest_count":5,"bytes":256}},
			"faults":[{"kind":"link","count":3,"seed":11,"at_us":30},
			          {"kind":"node","node":9,"at_us":80}]}`),
		"group-phase": parse(`{"dim":4,"ops":[{"kind":"group-phase",
			"groups":[[0,1,2,3,4,5,6,7],[8,9,10,11,12,13,14,15]],"roots":[0,14],"bytes":768}]}`),
		"one-port-lanes": parse(`{"dim":5,"port":"one-port","lanes":2,"vc_policy":"lowest-occupancy",
			"seed":13,"arrivals":{"kind":"poisson","count":12,"rate_per_ms":10,
			"op":{"kind":"multicast","algorithm":"w-sort","dest_count":9,"bytes":512}}}`),
		"faulted-one-port-multicast": parse(`{"dim":4,"port":"one-port","seed":8,"arrivals":{
			"kind":"poisson","count":10,"rate_per_ms":6,
			"op":{"kind":"multicast","dest_count":6,"bytes":256}},
			"faults":[{"kind":"link","count":3,"seed":2,"at_us":20}]}`),
		"collective-kinds": parse(`{"dim":4,"seed":17,"ops":[
			{"kind":"gather","src":3,"bytes":128},
			{"kind":"allgather","bytes":64,"at_us":10},
			{"kind":"reduce-scatter","bytes":256,"seed":4},
			{"kind":"alltoall","bytes":128,"after":["op000"]}]}`),
	}
}

// TestWallTrafficScenarios runs every scenario family twice and requires
// the JSON-encoded Result — op timelines, payload digests, fault outcomes,
// network totals — to match byte for byte. The second run borrows the
// pooled session, tree executions and node tables the first one released,
// so any state a recycled session leaks into its next scenario shows here.
func TestWallTrafficScenarios(t *testing.T) {
	for name, build := range wallSpecs() {
		t.Run(name, func(t *testing.T) {
			ref, err := traffic.Run(build())
			if err != nil {
				t.Fatal(err)
			}
			want := encode(t, ref)
			res, err := traffic.Run(build())
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if got := encode(t, res); got != want {
				t.Fatalf("traffic result diverges between runs\nwant %s\ngot  %s", want, got)
			}
		})
	}
}

// TestWallBatchSimulate pins the public batch surface: SimulateBatch over
// a mixed batch equals the Simulate loop at every worker count.
func TestWallBatchSimulate(t *testing.T) {
	cube := hypercube.New(6, topology.HighToLow)
	var trees []*hypercube.Tree
	for i, alg := range []hypercube.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort} {
		src := hypercube.NodeID(i * 11 % cube.Nodes())
		dests := hypercube.RandomDests(cube, int64(100+i), src, 20)
		trees = append(trees, hypercube.Multicast(cube, alg, src, dests))
	}
	p := hypercube.NCube2Params(core.AllPort)
	want := make([]hypercube.MachineResult, len(trees))
	for i, tr := range trees {
		want[i] = hypercube.Simulate(p, tr, 2048)
	}
	for _, workers := range wallWorkers {
		pw := p
		pw.Workers = workers
		if got := hypercube.SimulateBatch(pw, trees, 2048); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: SimulateBatch diverges from Simulate loop", workers)
		}
	}
}

// TestWallFaultTolerant pins the worker gate on the fault-tolerant
// protocol runner: retries, repairs, and per-destination outcomes under a
// mixed fault plan are identical at every worker count.
func TestWallFaultTolerant(t *testing.T) {
	cube := hypercube.New(5, topology.HighToLow)
	run := func(workers int) hypercube.MachineResult {
		p := hypercube.NCube2Params(core.AllPort)
		p.Workers = workers
		plan := hypercube.FaultPlan{
			Seed:  77,
			Links: hypercube.RandomLinkFaults(cube, 13, 3),
			Nodes: []hypercube.NodeFault{{Node: 21, At: 60 * event.Microsecond}},
		}
		dests := hypercube.RandomDests(cube, 9, 0, 12)
		res, err := hypercube.SimulateFaultTolerant(p, cube, core.WSort, 0, dests, 512, plan)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	want := run(1)
	for _, workers := range wallWorkers[1:] {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: fault-tolerant result diverges", workers)
		}
	}
}
