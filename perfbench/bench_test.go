package main

import (
	"encoding/json"
	"os"
	"testing"

	"hypercube/internal/server"
	"hypercube/internal/traffic"
	"hypercube/internal/workload"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.name, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

func TestAttributionAddsUp(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40, Calls: 3},
		{ID: 3, Parent: 2, Name: "b", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "b", Start: 50, End: 90},
	}
	a := attribute("test", spans, func(s span) string {
		if s.Name == "root" {
			return ""
		}
		return s.Name
	}, 100, 80)
	if got := a.row("a"); got.Calls != 3 || got.SelfMS != 20e-6 {
		t.Errorf("row a = %+v, want 3 calls, 20 ns self", got)
	}
	if got := a.row("b"); got.Calls != 2 || got.SelfMS != 50e-6 {
		t.Errorf("row b = %+v, want 2 calls, 50 ns self", got)
	}
	sum := a.Remainder
	for _, r := range a.Rows {
		sum += r.Share
	}
	if sum < 1-1e-12 || sum > 1+1e-12 {
		t.Errorf("shares plus remainder = %v, want 1", sum)
	}
	if a.Overhead != 0.25 {
		t.Errorf("overhead = %v, want 0.25", a.Overhead)
	}
}

func TestScenariosCanonicalize(t *testing.T) {
	for _, seed := range []int64{defaultSeed, 1, 42} {
		for _, sc := range trafficScenarios(seed) {
			spec, err := traffic.Parse(sc.body)
			if err == nil {
				err = spec.Canonicalize(traffic.Limits{})
			}
			if err != nil {
				t.Errorf("seed %d, %s: %v", seed, sc.name, err)
			}
		}
	}
}

func TestServeRequestsKey(t *testing.T) {
	keyer := server.NewKeyer(shardConfig())
	for _, seed := range []int64{defaultSeed, 1} {
		for k := 0; k < 2*480; k++ {
			req := serveRequest(k, seed)
			if _, err := keyer.Key(req.path, []byte(req.body)); err != nil {
				t.Errorf("seed %d key %d: %v", seed, k, err)
			}
		}
	}
}

// TestSensitivityFlagsInjectedLayer is the injected-slowdown check: a 15%
// busy-wait in the core.schedule wrapper of the traced replica must be
// flagged on core.schedule's per-call time and on no other layer's.
func TestSensitivityFlagsInjectedLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	small := func(n int) int { return max(n/10, 2) }
	var jobs []figJob
	for _, j := range figureJobs(defaultSeed, small) {
		if j.stepwise != nil && j.stepwise.Dim == 6 {
			jobs = append(jobs, j)
		}
		if j.delay != nil && j.delay.Dim == 5 && j.delay.Stat == workload.AvgDelay {
			jobs = append(jobs, j)
		}
	}
	layers := []string{"core.build", "core.schedule", "ncube.run"}
	perCall := func(slow map[string]float64) map[string]float64 {
		tr := &tracer{rec: newRecorder(), slow: slow}
		for _, j := range jobs {
			all := make([]int, j.points())
			for p := range all {
				all[p] = p
			}
			if _, err := j.replica(all, tr); err != nil {
				t.Fatal(err)
			}
		}
		ns, calls := map[string]float64{}, map[string]float64{}
		for _, s := range tr.rec.spans {
			ns[s.Name] += float64(s.dur())
			calls[s.Name] += float64(s.Calls)
		}
		out := map[string]float64{}
		for _, l := range layers {
			out[l] = ns[l] / calls[l]
		}
		return out
	}
	base, cur := map[string][]float64{}, map[string][]float64{}
	inject := map[string]float64{"core.schedule": 0.15}
	perCall(nil) // warm-up
	for i := 0; i < 30; i++ {
		// Alternate which side of the pair runs first.
		var b, c map[string]float64
		if i%2 == 0 {
			b, c = perCall(nil), perCall(inject)
		} else {
			c, b = perCall(inject), perCall(nil)
		}
		for _, l := range layers {
			base[l] = append(base[l], b[l])
			cur[l] = append(cur[l], c[l])
		}
	}
	for _, l := range layers {
		want := l == "core.schedule"
		if got := regressed(base[l], cur[l], 0.05); got != want {
			t.Errorf("%s: flagged %v, want %v (ns/call per pair: base %.0f, injected %.0f)",
				l, got, want, base[l], cur[l])
		}
	}
}

// TestServeLoadTraced drives a short traced closed loop in two segments:
// the second goes on where the first stopped, every request is answered,
// and each leaves one router span and one shard span.
func TestServeLoadTraced(t *testing.T) {
	log := &spanLog{}
	c, err := bootCluster(t.TempDir(), log)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	seq := keySequence(1)
	samples, walls, err := load(c.front.URL, seq, 1, 0, 120, 0)
	if err != nil {
		t.Fatal(err)
	}
	more, _, err := load(c.front.URL, seq, 1, len(samples), 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	samples = append(samples, more...)
	if len(samples) != 200 || len(walls) != serveClients {
		t.Fatalf("%d samples, %d client walls", len(samples), len(walls))
	}
	for i, s := range samples {
		if s.n != i {
			t.Errorf("sample %d is request %d", i, s.n)
		}
		if s.status != 200 {
			t.Errorf("request %d answered %d", s.n, s.status)
		}
	}
	if len(log.spans) != 2*len(samples) {
		t.Errorf("%d spans for %d requests, want two each", len(log.spans), len(samples))
	}
}
