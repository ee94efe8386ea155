package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/traffic"
	"hypercube/internal/vc"
)

// trafficDigest is the SHA-256 of every scenario's output bytes, in
// scenario order, at the default seed.
const trafficDigest = "c2bd8fd197f0a2559aa629fb3f8df598fde4be02e5e6af8a73575129df656baf"

// scenario is one traffic spec as a client would send it.
type scenario struct {
	name string
	body []byte
}

// trafficScenarios returns the seeded scenario set, covering the
// committed families: Poisson multicast saturation in a 6-cube (the
// cmd/traffic sweep grid, u-cube vs w-sort), a 4-lane round-robin
// machine, timed link faults under fault-tolerant multicast, payload-
// verified allreduce (halving-doubling and ring), and one
// scatter→gather→allgather dependency chain.
func trafficScenarios(seed int64) []scenario {
	var out []scenario
	add := func(name string, spec any) {
		b, err := json.Marshal(spec)
		if err != nil {
			panic(err) // literal maps always marshal
		}
		out = append(out, scenario{name, b})
	}
	type m = map[string]any
	poisson := func(count int, rate float64, op m) m {
		return m{"kind": "poisson", "count": count, "rate_per_ms": rate, "op": op}
	}
	for _, rate := range []float64{0.25, 0.5, 1, 2, 4, 8} {
		for _, alg := range []string{"u-cube", "w-sort"} {
			add(fmt.Sprintf("poisson-%s-%g", alg, rate), m{"dim": 6, "seed": seed,
				"arrivals": poisson(64, rate, m{"kind": "multicast", "algorithm": alg, "bytes": 4096, "dest_count": 32})})
		}
	}
	// Multicasts spaced far apart in simulated time: each runs alone, so
	// each must take exactly its isolated single-run makespan.
	var spaced []m
	for i, alg := range []string{"u-cube", "maxport", "combine", "w-sort", "u-cube", "maxport", "combine", "w-sort"} {
		spaced = append(spaced, m{"kind": "multicast", "algorithm": alg, "src": int(seed+int64(13*i)) & 63,
			"dest_count": 8 + 6*i, "seed": seed*100 + int64(i), "bytes": 4096, "at_us": 20000 * i})
	}
	add("spaced-multicasts", m{"dim": 6, "seed": seed, "ops": spaced})
	add("lanes-4-round-robin", m{"dim": 6, "seed": seed, "lanes": 4, "vc_policy": "round-robin",
		"arrivals": poisson(64, 8, m{"kind": "multicast", "algorithm": "w-sort", "bytes": 4096, "dest_count": 32})})
	add("faults-timed-ft-multicast", m{"dim": 5, "seed": seed,
		"arrivals": poisson(32, 2, m{"kind": "fault-tolerant-multicast", "algorithm": "w-sort", "bytes": 4096, "dest_count": 16}),
		"faults": []m{
			{"kind": "link", "mode": "drop", "count": 3, "seed": seed},
			{"kind": "link", "mode": "drop", "count": 2, "seed": seed + 1, "at_us": 2000, "until_us": 8000},
		}})
	for _, alg := range []string{"hd", "ring"} {
		add("allreduce-"+alg, m{"dim": 5, "seed": seed,
			"arrivals": poisson(8, 1, m{"kind": "allreduce", "algorithm": alg, "bytes": 256})})
	}
	add("chain-scatter-gather-allgather", m{"dim": 6, "seed": seed, "ops": []m{
		{"id": "scatter", "kind": "scatter", "src": int(seed & 63), "bytes": 1024},
		{"id": "gather", "kind": "gather", "src": int(seed & 63), "bytes": 1024, "after": []string{"scatter"}, "delay_us": 50},
		{"id": "allgather", "kind": "allgather", "bytes": 1024, "after": []string{"gather"}},
	}})
	return out
}

// trafficOut is one scenario's outcome, what cmd/traffic -spec prints.
type trafficOut struct {
	spec  *traffic.Spec
	res   *traffic.Result
	bytes []byte
}

// runScenario is the measured pipeline: parse, canonicalize, run, encode.
// With a tracer each stage is one span.
func runScenario(sc scenario, t *tracer) (trafficOut, error) {
	var (
		o   trafficOut
		err error
	)
	t.batch("traffic.parse", 1, func() { o.spec, err = traffic.Parse(sc.body) })
	if err != nil {
		return o, err
	}
	t.batch("traffic.canonicalize", 1, func() { err = o.spec.Canonicalize(traffic.Limits{}) })
	if err != nil {
		return o, err
	}
	t.batch("traffic.run", len(o.spec.Ops), func() { o.res, err = traffic.Run(o.spec) })
	if err != nil {
		return o, err
	}
	t.batch("traffic.encode", 1, func() {
		o.bytes, err = json.MarshalIndent(struct {
			Spec   *traffic.Spec   `json:"spec"`
			Result *traffic.Result `json:"result"`
		}{o.spec, o.res}, "", "  ")
	})
	return o, err
}

// trafficPass runs every scenario once and returns the outcomes and each
// scenario's host time in milliseconds. A scenario's error is its
// operation's failure, reported through fail.
func trafficPass(scs []scenario, t *tracer, fail func(int, error)) ([]trafficOut, []float64) {
	outs := make([]trafficOut, len(scs))
	lats := make([]float64, len(scs))
	for i, sc := range scs {
		t0 := time.Now()
		var err error
		t.group("traffic.spec", func() { outs[i], err = runScenario(sc, t) })
		lats[i] = time.Since(t0).Seconds() * 1e3
		if err != nil {
			fail(i, fmt.Errorf("traffic: %s: %w", sc.name, err))
		}
	}
	return outs, lats
}

func runTraffic(r *run) error {
	var scs []scenario
	ops := 0
	st := newSetupTimer(r.opts.seconds, func() error {
		scs = trafficScenarios(r.opts.seed)
		ops = 0
		// Warm-up pass: let pools and lazily built state settle.
		outs, _ := trafficPass(scs, nil, func(int, error) {})
		for _, o := range outs {
			if o.res != nil {
				ops += len(o.res.Ops)
			}
		}
		return nil
	})
	if err := st.start(3); err != nil {
		return err
	}

	var (
		first         []trafficOut
		failedIdx     = map[int]bool{}
		rates, allocs []float64
		lats          = make([][]float64, len(scs))
		ms            runtime.MemStats
	)
	fail := func(i int, err error) {
		failedIdx[i] = true
		r.op(err)
	}
	durs, err := timeBudget(r.opts.seconds, st, func() {
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		t0 := time.Now()
		outs, ls := trafficPass(scs, nil, fail)
		el := time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms)
		allocs = append(allocs, float64(ms.TotalAlloc-a0)/1e6)
		rates = append(rates, float64(ops)/el)
		for i, l := range ls {
			lats[i] = append(lats[i], l)
		}
		if first == nil {
			first = outs
			return
		}
		for i, o := range outs {
			if failedIdx[i] {
				continue
			}
			if !bytes.Equal(o.bytes, first[i].bytes) {
				r.op(fmt.Errorf("traffic: %s output differs between passes", scs[i].name))
			} else {
				r.op(nil)
			}
		}
	})
	if err != nil {
		return err
	}
	checkTraffic(r, scs, first, failedIdx)
	if r.opts.trace {
		return traceTraffic(r, scs, durs)
	}
	st.report(r)
	r.setMedian("ops_per_s", rates)
	r.setLatencies(lats)
	r.setMedian("alloc_mb", allocs)
	r.set("success_frac", 1-float64(r.failed)/float64(r.attempted))
	r.notes["passes"] = len(durs)
	r.notes["ops_per_pass"] = ops
	return nil
}

// checkTraffic checks the first pass's outputs, one operation per
// scenario: data ops verified their payloads, faulted ops account every
// destination as delivered or failed, every multicast that ran alone in
// simulated time took exactly its isolated core.Build + ncube.Run
// makespan, and, at the default seed, the output bytes match the digest
// recorded for this scenario set.
func checkTraffic(r *run, scs []scenario, outs []trafficOut, failedIdx map[int]bool) {
	h := sha256.New()
	isolated := 0
	for i, o := range outs {
		if failedIdx[i] {
			continue
		}
		h.Write(o.bytes)
		n, err := checkScenario(scs[i].name, o)
		isolated += n
		r.op(err)
	}
	if r.opts.seed == defaultSeed && len(failedIdx) == 0 {
		if got := hex.EncodeToString(h.Sum(nil)); got != trafficDigest {
			r.op(fmt.Errorf("traffic: output digest %s, recorded %s", got, trafficDigest))
		} else {
			r.op(nil)
		}
	}
	r.notes["isolated_multicasts_checked"] = isolated
}

// checkScenario checks one scenario's output and returns how many isolated
// multicasts it compared with their single-run makespan.
func checkScenario(name string, o trafficOut) (int, error) {
	spec, res := o.spec, o.res
	if len(res.Ops) != len(spec.Ops) {
		return 0, fmt.Errorf("traffic: %s: %d results for %d ops", name, len(res.Ops), len(spec.Ops))
	}
	p, err := machine(spec)
	if err != nil {
		return 0, fmt.Errorf("traffic: %s: %w", name, err)
	}
	cube := topology.New(spec.Dim, topology.HighToLow)
	isolated := 0
	for i, or := range res.Ops {
		op := spec.Ops[i]
		switch op.Kind {
		case traffic.KindAllReduce, traffic.KindReduceScatter, traffic.KindAllToAll:
			if !or.DataVerified {
				return isolated, fmt.Errorf("traffic: %s: data op %s not verified", name, or.ID)
			}
		}
		if len(spec.Faults) > 0 {
			d := or.Delivery
			if d == nil && op.Kind == traffic.KindFTMulticast {
				return isolated, fmt.Errorf("traffic: %s: faulted op %s has no delivery accounting", name, or.ID)
			}
			if d != nil && d.Delivered+d.Failed != d.Dests {
				return isolated, fmt.Errorf("traffic: %s: op %s delivered %d + failed %d != dests %d",
					name, or.ID, d.Delivered, d.Failed, d.Dests)
			}
			continue
		}
		if op.Kind != traffic.KindMulticast || !alone(res.Ops, i) {
			continue
		}
		alg, err := core.ParseAlgorithm(op.Algorithm)
		if err != nil {
			return isolated, fmt.Errorf("traffic: %s: %w", name, err)
		}
		dests := make([]topology.NodeID, len(op.Dests))
		for k, v := range op.Dests {
			dests[k] = topology.NodeID(v)
		}
		iso := ncube.Run(p, core.Build(cube, alg, topology.NodeID(op.Src), dests), op.Bytes)
		if int64(iso.Makespan) != or.ServiceNS {
			return isolated, fmt.Errorf("traffic: %s: op %s ran alone but served in %d ns, isolated makespan %d ns",
				name, or.ID, or.ServiceNS, iso.Makespan)
		}
		isolated++
	}
	return isolated, nil
}

// alone reports whether op i's [start, finish] overlaps no other op's.
func alone(ops []traffic.OpResult, i int) bool {
	for j, o := range ops {
		if j != i && o.StartNS < ops[i].FinishNS && ops[i].StartNS < o.FinishNS {
			return false
		}
	}
	return true
}

// machine maps a canonical spec's machine fields to ncube parameters, as
// the traffic engine does.
func machine(s *traffic.Spec) (ncube.Params, error) {
	pm := core.AllPort
	if s.Port == "one-port" {
		pm = core.OnePort
	}
	p := ncube.NCube2(pm)
	if s.Machine == "ncube3" {
		p = ncube.NCube3(pm)
	}
	if s.Lanes > 1 {
		k, err := vc.ParseKind(s.VCPolicy)
		if err != nil {
			return p, err
		}
		p.Lanes, p.VCPolicy = s.Lanes, k
	}
	return p, nil
}

var trafficLayers = []string{"traffic.parse", "traffic.canonicalize", "traffic.run", "traffic.encode"}

// traceTraffic repeats the untraced run's pass count with every stage
// traced, and attributes the traced total to the stages. untraced holds
// the untraced passes' durations in seconds.
func traceTraffic(r *run, scs []scenario, untraced []float64) error {
	t := &tracer{rec: newRecorder()}
	var (
		total, untracedNS int64
		net               traffic.NetStats
		arcTime           float64
		ops               int
	)
	for _, d := range untraced {
		untracedNS += int64(d * 1e9)
	}
	for p := range untraced {
		root := t.rec.open("traffic.pass", 0)
		t.parent = root
		outs, _ := trafficPass(scs, t, func(_ int, err error) { r.op(err) })
		t.rec.close(root)
		total += t.rec.spans[root-1].dur()
		if p > 0 {
			continue
		}
		// Simulated totals of one pass: identical in every pass.
		for _, o := range outs {
			if o.res == nil {
				continue
			}
			n := o.res.Net
			net.Delivered += n.Delivered
			net.HeaderBlocks += n.HeaderBlocks
			net.BlockedNS += n.BlockedNS
			c := topology.New(o.spec.Dim, topology.HighToLow)
			arcTime += float64(c.Nodes()) * float64(c.Dim()) * float64(n.DurationNS)
			ops += len(o.res.Ops)
		}
	}
	r.spans = t.rec.spans
	r.attrib = attribute("traffic", r.spans, func(s span) string {
		for _, l := range trafficLayers {
			if s.Name == l {
				return l
			}
		}
		return ""
	}, total, untracedNS)
	r.attrib.Note = fmt.Sprintf("%d traced passes over %d scenarios vs as many untraced passes", len(untraced), len(scs))
	a := r.attrib
	passes := float64(len(untraced))
	specs := passes * float64(len(scs))
	for _, l := range []string{"traffic.parse", "traffic.canonicalize", "traffic.encode"} {
		r.set(l+".us_per_spec", a.row(l).SelfMS*1e3/specs)
		r.set(l+".share", a.row(l).Share)
	}
	var runAlloc uint64
	for _, s := range r.spans {
		if s.Name == "traffic.run" {
			runAlloc += s.AllocB
		}
	}
	run := a.row("traffic.run")
	totalOps := passes * float64(ops)
	r.set("traffic.run.us_per_op", run.SelfMS*1e3/totalOps)
	r.set("traffic.run.share", run.Share)
	r.set("traffic.run.alloc_kb_per_op", float64(runAlloc)/1e3/totalOps)
	r.set("traffic.run.ns_per_unicast", run.SelfMS*1e6/(passes*float64(net.Delivered)))
	r.set("wormhole.delivered", float64(net.Delivered))
	r.set("wormhole.header_blocks", float64(net.HeaderBlocks))
	r.set("wormhole.blocked_fraction", float64(net.BlockedNS)/arcTime)
	r.set("traffic.remainder_share", a.Remainder)
	r.set("traffic.trace_overhead_frac", a.Overhead)
	return nil
}
