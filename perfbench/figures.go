package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/metrics"
	"hypercube/internal/ncube"
	"hypercube/internal/stats"
	"hypercube/internal/topology"
	"hypercube/internal/workload"
)

// figJob is one cmd/figures table: the results/ file it is committed as
// and the configuration of the public workload sweep that computes it.
// Exactly one config is set.
type figJob struct {
	file     string
	stepwise *workload.StepwiseConfig
	delay    *workload.DelayConfig
	size     *workload.SizeSweepConfig
	conc     *workload.ConcurrentConfig
}

var figAlgs = []core.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort}

// figureJobs returns the eight cmd/figures jobs with every default written
// out, so the public sweep and the benchmark's replica read one
// configuration. trials maps the committed trial count to the one to run.
func figureJobs(seed int64, trials func(int) int) []figJob {
	np := ncube.NCube2(core.AllPort)
	var sizes []int
	for s := 64; s <= 16384; s *= 2 {
		sizes = append(sizes, s)
	}
	delay := func(dim, full int, stat workload.DelayStat, points int) *workload.DelayConfig {
		return &workload.DelayConfig{
			Dim: dim, Trials: trials(full), Seed: seed, Bytes: 4096, Params: np, Stat: stat,
			Algorithms: figAlgs, DestCounts: workload.DestCounts(dim, points),
		}
	}
	// cmd/figures leaves StepwiseConfig.Port at its zero value, which is
	// the one-port model; the committed fig09/fig10 tables say so.
	return []figJob{
		{file: "fig09_stepwise_6cube.txt", stepwise: &workload.StepwiseConfig{
			Dim: 6, Trials: trials(100), Seed: seed, Algorithms: figAlgs,
			DestCounts: workload.DestCounts(6, 64), Port: core.OnePort, Stat: workload.MaxSteps,
		}},
		{file: "fig10_stepwise_10cube.txt", stepwise: &workload.StepwiseConfig{
			Dim: 10, Trials: trials(100), Seed: seed, Algorithms: figAlgs,
			DestCounts: workload.DestCounts(10, 33), Port: core.OnePort, Stat: workload.MaxSteps,
		}},
		{file: "fig11_avg_delay_5cube.txt", delay: delay(5, 20, workload.AvgDelay, 32)},
		{file: "fig12_max_delay_5cube.txt", delay: delay(5, 20, workload.MaxDelay, 32)},
		{file: "fig13_avg_delay_10cube.txt", delay: delay(10, 100, workload.AvgDelay, 17)},
		{file: "fig14_max_delay_10cube.txt", delay: delay(10, 100, workload.MaxDelay, 17)},
		{file: "sweep_msgsize_5cube.txt", size: &workload.SizeSweepConfig{
			Dim: 5, Dests: 12, Trials: trials(20), Seed: seed, Sizes: sizes, Params: np,
			Stat: workload.AvgDelay, Algorithms: figAlgs,
		}},
		{file: "ext_concurrent_6cube.txt", conc: &workload.ConcurrentConfig{
			Dim: 6, Dests: 12, Trials: trials(20), Seed: seed, Bytes: 4096, Params: np,
			Counts: []int{1, 2, 4, 8, 16}, Algorithms: figAlgs,
		}},
	}
}

// table runs the job through its public workload sweep on workers point
// workers (0 = GOMAXPROCS, as cmd/figures runs).
func (j figJob) table(workers int) *stats.Table {
	switch {
	case j.stepwise != nil:
		c := *j.stepwise
		c.Workers = workers
		return workload.Stepwise(c)
	case j.delay != nil:
		c := *j.delay
		c.Workers = workers
		return workload.Delay(c)
	case j.size != nil:
		c := *j.size
		c.Workers = workers
		return workload.SizeSweep(c)
	default:
		c := *j.conc
		c.Workers = workers
		return workload.Concurrent(c)
	}
}

// points is the number of table rows.
func (j figJob) points() int {
	switch {
	case j.stepwise != nil:
		return len(j.stepwise.DestCounts)
	case j.delay != nil:
		return len(j.delay.DestCounts)
	case j.size != nil:
		return len(j.size.Sizes)
	default:
		return len(j.conc.Counts)
	}
}

// instances counts the (destination set × algorithm) multicasts the job
// completes.
func (j figJob) instances() int {
	switch {
	case j.stepwise != nil:
		return len(j.stepwise.DestCounts) * j.stepwise.Trials * len(j.stepwise.Algorithms)
	case j.delay != nil:
		return len(j.delay.DestCounts) * j.delay.Trials * len(j.delay.Algorithms)
	case j.size != nil:
		return len(j.size.Sizes) * j.size.Trials * len(j.size.Algorithms)
	default:
		k := 0
		for _, c := range j.conc.Counts {
			k += c
		}
		return k * j.conc.Trials * len(j.conc.Algorithms)
	}
}

// quickTrials is the fidelity of cmd/figures -quick. The timed passes run
// at it, so one run holds many passes and reports their median. They run
// on one point worker: on a 2-CPU host a second worker buys about 1.3x
// and doubles the run-to-run spread.
func quickTrials(n int) int {
	if n >= 100 {
		return 10
	}
	return 5
}

// runFigures measures the figures workload: passes of the eight tables at
// cmd/figures -quick fidelity on one point worker, or, traced, one serial
// untraced pass against the layer-batched replica. At the default seed it
// also makes one untimed pass at committed fidelity and compares it with
// results/.
func runFigures(r *run) error {
	seed := r.opts.seed
	var jobs []figJob
	// Set-up warms the passes' path: every table once at one trial, on
	// the passes' one point worker.
	st := newSetupTimer(r.opts.seconds, func() error {
		jobs = figureJobs(seed, quickTrials)
		for _, j := range figureJobs(seed, func(int) int { return 1 }) {
			j.table(1)
		}
		return nil
	})
	if err := st.start(3); err != nil {
		return err
	}
	if seed == defaultSeed {
		for _, j := range figureJobs(seed, func(n int) int { return n }) {
			r.op(matchesCommitted(j.file, j.table(0)))
		}
	}
	if r.opts.trace {
		return traceFigures(r, jobs)
	}

	instances := 0
	for _, j := range jobs {
		instances += j.instances()
	}
	var (
		first        []*stats.Table
		rates, alloc []float64
		lats         = make([][]float64, len(jobs))
		ms           runtime.MemStats
	)
	durs, err := timeBudget(r.opts.seconds, st, func() {
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		t0 := time.Now()
		tables := make([]*stats.Table, len(jobs))
		for i, j := range jobs {
			tj := time.Now()
			tables[i] = j.table(1)
			lats[i] = append(lats[i], time.Since(tj).Seconds()*1e3)
		}
		el := time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms)
		alloc = append(alloc, float64(ms.TotalAlloc-a0)/1e6)
		rates = append(rates, float64(instances)/el)
		if first == nil {
			first = tables
			return
		}
		for i, tb := range tables {
			r.op(sameTable(jobs[i].file, first[i], tb))
		}
	})
	if err != nil {
		return err
	}
	checkFigureTables(r, jobs, first)
	st.report(r)
	r.setMedian("ops_per_s", rates)
	r.setLatencies(lats)
	r.setMedian("alloc_mb", alloc)
	r.set("success_frac", 1-float64(r.failed)/float64(r.attempted))
	r.notes["passes"] = len(durs)
	r.notes["instances_per_pass"] = instances
	return nil
}

// sameTable reports whether two passes produced byte-identical tables.
func sameTable(file string, a, b *stats.Table) error {
	if a.Render() != b.Render() {
		return fmt.Errorf("figures: %s differs between passes", file)
	}
	return nil
}

// checkFigureTables checks one pass's tables, one operation each: each is
// well-formed, with stepwise cells at or above core.StepLowerBound, and
// one seeded row recomputed by the replica (which also checks that every
// destination was reached) equals the sweep's row.
func checkFigureTables(r *run, jobs []figJob, tables []*stats.Table) {
	rng := rand.New(rand.NewSource(r.opts.seed))
	for i, j := range jobs {
		tb := tables[i]
		err := wellFormed(j, tb)
		if err == nil {
			p := rng.Intn(j.points())
			var rows []stats.Row
			if rows, err = j.replica([]int{p}, nil); err == nil && !reflect.DeepEqual(rows[0], tb.Rows[p]) {
				err = fmt.Errorf("figures: %s row %d: replica %v, sweep %v", j.file, p, rows[0], tb.Rows[p])
			}
		}
		r.op(err)
	}
}

func matchesCommitted(file string, tb *stats.Table) error {
	want, err := os.ReadFile(filepath.Join("results", file))
	if err != nil {
		return fmt.Errorf("figures: reading committed table: %v", err)
	}
	if !bytes.Equal(want, []byte(tb.Render())) {
		return fmt.Errorf("figures: %s differs from the committed results/%s", file, file)
	}
	return nil
}

func wellFormed(j figJob, tb *stats.Table) error {
	if len(tb.Rows) != j.points() || len(tb.Columns) != len(figAlgs) {
		return fmt.Errorf("figures: %s has %d rows x %d columns, want %d x %d",
			j.file, len(tb.Rows), len(tb.Columns), j.points(), len(figAlgs))
	}
	for _, row := range tb.Rows {
		for _, v := range row.Cells {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Errorf("figures: %s row %v has cell %v", j.file, row.X, v)
			}
			if s := j.stepwise; s != nil && v < float64(core.StepLowerBound(s.Port, s.Dim, int(row.X))) {
				return fmt.Errorf("figures: %s row %v averages %v steps, below the lower bound", j.file, row.X, v)
			}
		}
	}
	return nil
}

// tracer times the replica's calls into each layer, one span per batch of
// calls, with the heap bytes the batch allocated. A nil tracer runs the
// calls untimed (the spot checks of an untraced run).
type tracer struct {
	rec    *recorder
	reg    *metrics.Registry // simulator counters of the traced ncube runs
	parent int
	ms     runtime.MemStats
	// slow injects a busy-wait into a layer's spans, as a fraction of the
	// batch's own time; the sensitivity test uses it.
	slow map[string]float64
}

func (t *tracer) batch(layer string, calls int, fn func()) {
	if t == nil {
		fn()
		return
	}
	runtime.ReadMemStats(&t.ms)
	a0 := t.ms.TotalAlloc
	start := time.Now()
	fn()
	if f := t.slow[layer]; f > 0 {
		until := time.Duration(float64(time.Since(start)) * (1 + f))
		for time.Since(start) < until {
		}
	}
	end := time.Now()
	runtime.ReadMemStats(&t.ms)
	t.rec.add(span{Parent: t.parent, Name: layer, Start: t.rec.since(start), End: t.rec.since(end),
		Calls: calls, AllocB: t.ms.TotalAlloc - a0})
}

// group runs fn inside a harness span (a job or a point) whose self time is
// benchmark bookkeeping.
func (t *tracer) group(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id, parent := t.rec.open(name, t.parent), t.parent
	t.parent = id
	fn()
	t.parent = parent
	t.rec.close(id)
}

func (t *tracer) ins() ncube.Instrumentation {
	if t == nil {
		return ncube.Instrumentation{}
	}
	return ncube.Instrumentation{Metrics: t.reg}
}

// replica recomputes the job's rows at the given point indices with the
// sweep's own per-point seeds, batching each point's calls by layer. It
// checks what a table cannot show: every destination is reached and every
// schedule takes at least core.StepLowerBound steps.
func (j figJob) replica(points []int, t *tracer) ([]stats.Row, error) {
	var rows []stats.Row
	var err error
	t.group("workload.job", func() {
		switch {
		case j.stepwise != nil:
			rows, err = replicaStepwise(*j.stepwise, points, t)
		case j.delay != nil:
			rows, err = replicaDelay(*j.delay, points, t)
		case j.size != nil:
			rows, err = replicaSize(*j.size, points, t)
		default:
			rows, err = replicaConcurrent(*j.conc, points, t)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("figures: %s replica: %w", j.file, err)
	}
	return rows, nil
}

// draws are one point's generated multicast instances.
type draws struct {
	srcs  []topology.NodeID
	dests [][]topology.NodeID
}

func generate(t *tracer, gen *workload.Generator, n, m int) draws {
	d := draws{srcs: make([]topology.NodeID, n), dests: make([][]topology.NodeID, n)}
	t.batch("workload.generate", n, func() {
		for i := range d.srcs {
			d.srcs[i] = gen.Source()
			d.dests[i] = gen.Dests(d.srcs[i], m)
		}
	})
	return d
}

func buildAll(t *tracer, cube topology.Cube, algs []core.Algorithm, d draws) []*core.Tree {
	trees := make([]*core.Tree, len(d.srcs)*len(algs))
	t.batch("core.build", len(trees), func() {
		for i := range d.srcs {
			for a, alg := range algs {
				trees[i*len(algs)+a] = core.Build(cube, alg, d.srcs[i], d.dests[i])
			}
		}
	})
	return trees
}

func runAll(t *tracer, p ncube.Params, trees []*core.Tree, bytes int) []ncube.Result {
	res := make([]ncube.Result, len(trees))
	ins := t.ins()
	t.batch("ncube.run", len(trees), func() {
		for i, tr := range trees {
			res[i] = ncube.RunInstrumented(p, tr, bytes, ins)
		}
	})
	return res
}

func reached(r ncube.Result, dests []topology.NodeID) error {
	for _, d := range dests {
		if _, ok := r.Recv[d]; !ok {
			return fmt.Errorf("destination %v of a %s multicast never received", d, r.Algorithm)
		}
	}
	return nil
}

func delayStat(r ncube.Result, dests []topology.NodeID, stat workload.DelayStat) float64 {
	avg, max := r.Stats(dests)
	v := avg
	if stat == workload.MaxDelay {
		v = max
	}
	return float64(v) / float64(event.Microsecond)
}

func meanCells(samples [][]float64) []float64 {
	cells := make([]float64, len(samples))
	for i, xs := range samples {
		cells[i] = stats.Mean(xs)
	}
	return cells
}

func replicaStepwise(c workload.StepwiseConfig, points []int, t *tracer) ([]stats.Row, error) {
	cube := topology.New(c.Dim, topology.HighToLow)
	na := len(c.Algorithms)
	var rows []stats.Row
	for _, pi := range points {
		m := c.DestCounts[pi]
		var err error
		t.group("workload.point", func() {
			d := generate(t, workload.NewGenerator(cube, c.Seed+int64(m)), c.Trials, m)
			trees := buildAll(t, cube, c.Algorithms, d)
			scheds := make([]*core.Schedule, len(trees))
			t.batch("core.schedule", len(trees), func() {
				for i, tr := range trees {
					scheds[i] = core.NewSchedule(tr, c.Port)
				}
			})
			lb := core.StepLowerBound(c.Port, c.Dim, m)
			samples := make([][]float64, na)
			for i, s := range scheds {
				if s.Steps() < lb {
					err = fmt.Errorf("m=%d: %d steps, below the lower bound %d", m, s.Steps(), lb)
					return
				}
				v := float64(s.Steps())
				var sum float64
				for _, dst := range d.dests[i/na] {
					st, ok := s.RecvStep(dst)
					if !ok {
						err = fmt.Errorf("m=%d: destination %v unreached", m, dst)
						return
					}
					sum += float64(st)
				}
				if c.Stat == workload.AvgSteps {
					v = sum / float64(m)
				}
				samples[i%na] = append(samples[i%na], v)
			}
			rows = append(rows, stats.Row{X: float64(m), Cells: meanCells(samples)})
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func replicaDelay(c workload.DelayConfig, points []int, t *tracer) ([]stats.Row, error) {
	cube := topology.New(c.Dim, topology.HighToLow)
	na := len(c.Algorithms)
	var rows []stats.Row
	for _, pi := range points {
		m := c.DestCounts[pi]
		var err error
		t.group("workload.point", func() {
			d := generate(t, workload.NewGenerator(cube, c.Seed+int64(m)), c.Trials, m)
			res := runAll(t, c.Params, buildAll(t, cube, c.Algorithms, d), c.Bytes)
			samples := make([][]float64, na)
			for i, r := range res {
				if err = reached(r, d.dests[i/na]); err != nil {
					return
				}
				samples[i%na] = append(samples[i%na], delayStat(r, d.dests[i/na], c.Stat))
			}
			rows = append(rows, stats.Row{X: float64(m), Cells: meanCells(samples)})
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func replicaSize(c workload.SizeSweepConfig, points []int, t *tracer) ([]stats.Row, error) {
	cube := topology.New(c.Dim, topology.HighToLow)
	na := len(c.Algorithms)
	d := generate(t, workload.NewGenerator(cube, c.Seed), c.Trials, c.Dests)
	trees := buildAll(t, cube, c.Algorithms, d)
	// The sweep runs each algorithm's trees in instance order.
	byAlg := make([]*core.Tree, 0, len(trees))
	for a := 0; a < na; a++ {
		for i := range d.srcs {
			byAlg = append(byAlg, trees[i*na+a])
		}
	}
	var rows []stats.Row
	for _, pi := range points {
		size := c.Sizes[pi]
		var err error
		t.group("workload.point", func() {
			res := runAll(t, c.Params, byAlg, size)
			samples := make([][]float64, na)
			for k, r := range res {
				a, i := k/len(d.srcs), k%len(d.srcs)
				if err = reached(r, d.dests[i]); err != nil {
					return
				}
				samples[a] = append(samples[a], delayStat(r, d.dests[i], c.Stat))
			}
			rows = append(rows, stats.Row{X: float64(size), Cells: meanCells(samples)})
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func replicaConcurrent(c workload.ConcurrentConfig, points []int, t *tracer) ([]stats.Row, error) {
	cube := topology.New(c.Dim, topology.HighToLow)
	na := len(c.Algorithms)
	var rows []stats.Row
	for _, pi := range points {
		k := c.Counts[pi]
		var err error
		t.group("workload.point", func() {
			// One trial draws k multicasts; instance i belongs to trial i/k.
			d := generate(t, workload.NewGenerator(cube, c.Seed+int64(k)), c.Trials*k, c.Dests)
			trees := make([][]*core.Tree, c.Trials*na)
			t.batch("core.build", c.Trials*na*k, func() {
				for trial := 0; trial < c.Trials; trial++ {
					for a, alg := range c.Algorithms {
						ts := make([]*core.Tree, k)
						for j := range ts {
							ts[j] = core.Build(cube, alg, d.srcs[trial*k+j], d.dests[trial*k+j])
						}
						trees[trial*na+a] = ts
					}
				}
			})
			res := make([][]ncube.Result, len(trees))
			ins := t.ins()
			t.batch("ncube.run", c.Trials*na*k, func() {
				for i, ts := range trees {
					res[i] = ncube.RunManyInstrumented(c.Params, ts, c.Bytes, ins)
				}
			})
			samples := make([][]float64, na)
			for i, rs := range res {
				trial := i / na
				var worst event.Time
				for j, r := range rs {
					if err = reached(r, d.dests[trial*k+j]); err != nil {
						return
					}
					if r.Makespan > worst {
						worst = r.Makespan
					}
				}
				samples[i%na] = append(samples[i%na], float64(worst)/float64(event.Microsecond))
			}
			rows = append(rows, stats.Row{X: float64(k), Cells: meanCells(samples)})
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// figureLayers are the attribution rows of the figures replica.
var figureLayers = []string{"workload.generate", "core.build", "core.schedule", "ncube.run"}

// traceFigures makes one serial untraced pass through the public sweeps
// and one serial traced pass through the replica, checks that every
// replica table equals the sweep's, and attributes the traced total to the
// layers. Both passes run on one goroutine so the heap counters read
// around each batch see only that batch.
func traceFigures(r *run, jobs []figJob) error {
	t0 := time.Now()
	tables := make([]*stats.Table, len(jobs))
	for i, j := range jobs {
		tables[i] = j.table(1)
	}
	untraced := time.Since(t0)
	checkFigureTables(r, jobs, tables)

	t := &tracer{rec: newRecorder(), reg: metrics.New()}
	total := traceReplica(r, t, jobs, tables)
	r.spans = t.rec.spans
	r.attrib = attribute("figures", r.spans, func(s span) string {
		for _, l := range figureLayers {
			if s.Name == l {
				return l
			}
		}
		return ""
	}, total, int64(untraced))
	r.attrib.Note = "serial replica of the eight cmd/figures sweeps vs a serial untraced pass"
	reportFigureLayers(r, t.reg)
	return nil
}

// traceReplica runs the whole replica under t, checks each table against
// the sweep's (one operation per table), and returns the traced total.
func traceReplica(r *run, t *tracer, jobs []figJob, tables []*stats.Table) int64 {
	root := t.rec.open("workload.pass", 0)
	t.parent = root
	for i, j := range jobs {
		all := make([]int, j.points())
		for p := range all {
			all[p] = p
		}
		rows, err := j.replica(all, t)
		if err == nil && !reflect.DeepEqual(rows, tables[i].Rows) {
			err = fmt.Errorf("figures: %s replica table differs from the sweep's", j.file)
		}
		r.op(err)
	}
	t.rec.close(root)
	return t.rec.spans[root-1].dur()
}

func reportFigureLayers(r *run, reg *metrics.Registry) {
	a := r.attrib
	var allocs = map[string]uint64{}
	for _, s := range r.spans {
		allocs[s.Name] += s.AllocB
	}
	for _, l := range []string{"core.schedule", "core.build", "ncube.run"} {
		row := a.row(l)
		r.set(l+".calls", float64(row.Calls))
		r.set(l+".share", row.Share)
		if row.Calls > 0 {
			r.set(l+".us_per_call", row.SelfMS*1e3/float64(row.Calls))
			r.set(l+".alloc_kb_per_call", float64(allocs[l])/1e3/float64(row.Calls))
		}
	}
	r.set("workload.generate.share", a.row("workload.generate").Share)
	runs := float64(reg.Counter("mcast_runs").Value())
	steps := float64(reg.Counter("event_steps").Value())
	if runs > 0 && steps > 0 {
		r.set("event.steps_per_run", steps/runs)
		r.set("event.ns_per_step", a.row("ncube.run").SelfMS*1e6/steps)
		r.set("wormhole.acquires_per_run", float64(reg.Counter("net_channel_acquires").Value())/runs)
		r.set("wormhole.header_blocks_per_run", float64(reg.Counter("net_header_blocks").Value())/runs)
	}
	r.set("workload.remainder_share", a.Remainder)
	r.set("workload.trace_overhead_frac", a.Overhead)
}
