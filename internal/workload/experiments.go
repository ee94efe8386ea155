package workload

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/metrics"
	"hypercube/internal/ncube"
	"hypercube/internal/stats"
	"hypercube/internal/topology"
)

// forEachPoint evaluates work(w, i) for every point index concurrently on
// up to workers goroutines (0 means GOMAXPROCS). Each point's computation
// is self-contained and seeded independently, so the results are identical
// to a serial run — parallelism only shortens the wall clock, in keeping
// with the experiments' determinism guarantees. Each goroutine hands all
// of its points the same worker w, which no other goroutine sees.
func forEachPoint(points, workers int, work func(w *worker, i int)) {
	forEach(points, workers, func() func(i int) {
		w := new(worker)
		return func(i int) { work(w, i) }
	})
}

// ForEachPoint is forEachPoint for callers that need no worker — the
// server's request coalescer runs each batched request as one point, and
// Concurrent each interference point — so no goroutine allocates one.
// Semantics are identical: results match a serial run, and a point panic
// is annotated with its index and re-raised once from the caller.
func ForEachPoint(points, workers int, work func(i int)) {
	forEach(points, workers, func() func(i int) { return work })
}

// forEach runs every point index on up to workers goroutines, each
// evaluating its points with the function newWork made for it when it
// started.
//
// A panic inside a point is recovered in the worker goroutine, annotated
// with the failing point index, and re-raised exactly once from forEach's
// caller — a bare goroutine panic would kill the process without saying
// which sweep point's configuration failed. When a point has panicked,
// not-yet-started points are skipped; in-flight points run to completion.
func forEach(points, workers int, newWork func() func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > points {
		workers = points
	}
	var (
		failedMu sync.Mutex
		failed   *pointPanic
	)
	run := func(work func(int), i int) {
		defer func() {
			if v := recover(); v != nil {
				failedMu.Lock()
				if failed == nil {
					failed = &pointPanic{point: i, value: v, stack: debug.Stack()}
				}
				failedMu.Unlock()
			}
		}()
		work(i)
	}
	aborted := func() bool {
		failedMu.Lock()
		defer failedMu.Unlock()
		return failed != nil
	}
	if workers <= 1 {
		work := newWork()
		for i := 0; i < points && !aborted(); i++ {
			run(work, i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work := newWork()
				for i := range next {
					if !aborted() {
						run(work, i)
					}
				}
			}()
		}
		for i := 0; i < points; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	if failed != nil {
		panic(failed)
	}
}

// worker is one sweep goroutine's own multicast storage: the generator
// and destination buffer its points draw into, the workspace they build
// and schedule in and, for the delay sweeps, the session they run on. All
// of it lives for the whole sweep and is reused by every instance, so a
// warmed worker allocates nothing per instance.
type worker struct {
	gen     *Generator
	dests   []topology.NodeID
	ws      core.Workspace
	session *ncube.Session
}

// generator returns the worker's generator restarted for cube at seed.
func (w *worker) generator(cube topology.Cube, seed int64) *Generator {
	if w.gen == nil {
		w.gen = NewGenerator(cube, seed)
	} else {
		w.gen.Reseed(cube, seed)
	}
	return w.gen
}

// draw draws one instance, as gen.Source and then gen.Dests do, into the
// worker's destination buffer. The destinations are valid until the next
// draw.
func (w *worker) draw(gen *Generator, m int) (topology.NodeID, []topology.NodeID) {
	src := gen.Source()
	w.dests = gen.AppendDests(w.dests[:0], src, m)
	return src, w.dests
}

// run executes tr alone on the worker's own session, made on first use
// for the sweep's machine and instrumentation. The result is valid until
// the worker's next run.
func (w *worker) run(p ncube.Params, ins ncube.Instrumentation, tr *core.Tree, bytes int) *ncube.Result {
	if w.session == nil {
		w.session = ncube.NewOwnedSession(p, ins)
	}
	return w.session.RunTree(tr, bytes)
}

// pointPanic wraps a panic recovered from one sweep point's worker with
// the point index and the original goroutine's stack.
type pointPanic struct {
	point int
	value any
	stack []byte
}

func (p *pointPanic) Error() string {
	return fmt.Sprintf("workload: sweep point %d panicked: %v\n%s", p.point, p.value, p.stack)
}

func (p *pointPanic) String() string { return p.Error() }

// Unwrap exposes the original panic value when it was an error.
func (p *pointPanic) Unwrap() error {
	if err, ok := p.value.(error); ok {
		return err
	}
	return nil
}

// newSamples returns one empty sample per algorithm, each with room for
// every trial.
func newSamples(algorithms, trials int) [][]float64 {
	samples := make([][]float64, algorithms)
	for i := range samples {
		samples[i] = make([]float64, 0, trials)
	}
	return samples
}

// StepStat selects the per-set statistic of a stepwise experiment.
type StepStat int

const (
	// MaxSteps reports when the last destination is reached (the
	// paper's Figures 9 and 10).
	MaxSteps StepStat = iota
	// AvgSteps averages the receive step over the destinations.
	AvgSteps
)

func (s StepStat) String() string {
	if s == AvgSteps {
		return "avg"
	}
	return "max"
}

// StepwiseConfig drives the stepwise comparisons of Figures 9 and 10.
type StepwiseConfig struct {
	Dim        int              // hypercube dimensionality (6 or 10 in the paper)
	Trials     int              // destination sets per point (paper: 100)
	Seed       int64            // RNG seed
	Algorithms []core.Algorithm // series; defaults to U-cube/Maxport/Combine/W-sort
	DestCounts []int            // x axis; defaults to DestCounts(Dim, 64)
	// Port is the execution port model. The zero value is core.OnePort,
	// which cmd/figures leaves in place; the paper's Figures 9 and 10 are
	// all-port (core.AllPort, the cmd/stepwise default).
	Port    core.PortModel
	Stat    StepStat // per-set statistic (paper: MaxSteps)
	Workers int      // concurrent points; 0 = GOMAXPROCS, 1 = serial
	// Metrics, when non-nil, aggregates sweep-wide observability: trial
	// counts and per-schedule step distributions. Point workers update it
	// concurrently (all instruments are atomic); it never affects results.
	Metrics *metrics.Registry
}

func (c *StepwiseConfig) setDefaults() {
	if c.Trials == 0 {
		c.Trials = 100
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = []core.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort}
	}
	if len(c.DestCounts) == 0 {
		c.DestCounts = DestCounts(c.Dim, 64)
	}
}

// Stepwise reproduces the Figure 9/10 experiment: for each destination
// count, the average over random destination sets of the maximum number of
// steps needed to complete the multicast.
func Stepwise(cfg StepwiseConfig) *stats.Table {
	cfg.setDefaults()
	cube := topology.New(cfg.Dim, topology.HighToLow)
	cols := make([]string, len(cfg.Algorithms))
	for i, a := range cfg.Algorithms {
		cols[i] = a.String()
	}
	tb := stats.NewTable(
		fmt.Sprintf("stepwise comparison, %d-cube, %s, avg of %s steps over %d random sets",
			cfg.Dim, cfg.Port, cfg.Stat, cfg.Trials),
		"destinations", cols...)
	mTrials := cfg.Metrics.Counter("workload_trials")
	mSchedules := cfg.Metrics.Counter("workload_schedules")
	mSteps := cfg.Metrics.Histogram("workload_steps")
	rows := make([][]float64, len(cfg.DestCounts))
	forEachPoint(len(cfg.DestCounts), cfg.Workers, func(w *worker, pi int) {
		m := cfg.DestCounts[pi]
		gen := w.generator(cube, cfg.Seed+int64(m))
		samples := newSamples(len(cfg.Algorithms), cfg.Trials)
		for trial := 0; trial < cfg.Trials; trial++ {
			src, dests := w.draw(gen, m)
			mTrials.Inc()
			for i, a := range cfg.Algorithms {
				s := w.ws.NewSchedule(w.ws.Build(cube, a, src, dests), cfg.Port)
				mSchedules.Inc()
				mSteps.Observe(int64(s.Steps()))
				v := float64(s.Steps())
				if cfg.Stat == AvgSteps {
					var sum float64
					for _, d := range dests {
						st, ok := s.RecvStep(d)
						if !ok {
							panic("workload: destination unreached")
						}
						sum += float64(st)
					}
					v = sum / float64(len(dests))
				}
				samples[i] = append(samples[i], v)
			}
		}
		cells := make([]float64, len(samples))
		for i, xs := range samples {
			cells[i] = stats.Mean(xs)
		}
		rows[pi] = cells
	})
	for pi, m := range cfg.DestCounts {
		tb.Add(float64(m), rows[pi]...)
	}
	return tb
}

// DelayStat selects which per-destination delay statistic a delay
// experiment reports for each destination set.
type DelayStat int

const (
	// AvgDelay averages the receipt delay over the destinations of each
	// set (Figures 11 and 13).
	AvgDelay DelayStat = iota
	// MaxDelay takes the slowest destination of each set (Figures 12
	// and 14).
	MaxDelay
)

func (d DelayStat) String() string {
	if d == MaxDelay {
		return "max"
	}
	return "avg"
}

// DelayConfig drives the machine-delay experiments of Figures 11–14.
type DelayConfig struct {
	Dim        int          // 5 for the nCUBE-2 runs, 10 for MultiSim runs
	Trials     int          // destination sets per point (20 or 100)
	Seed       int64        // RNG seed
	Bytes      int          // message length (paper: 4096)
	Params     ncube.Params // machine model
	Stat       DelayStat
	Algorithms []core.Algorithm
	DestCounts []int
	Workers    int // concurrent points; 0 = GOMAXPROCS, 1 = serial
	// Metrics, when non-nil, aggregates sweep-wide observability across
	// every simulated run (event kernel, interconnect, and per-set delay
	// distributions). Point workers update it concurrently; it never
	// affects results.
	Metrics *metrics.Registry
}

func (c *DelayConfig) setDefaults() {
	if c.Trials == 0 {
		c.Trials = 20
	}
	if c.Bytes == 0 {
		c.Bytes = 4096
	}
	if c.Params == (ncube.Params{}) {
		c.Params = ncube.NCube2(core.AllPort)
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = []core.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort}
	}
	if len(c.DestCounts) == 0 {
		c.DestCounts = DestCounts(c.Dim, 32)
	}
}

// SizeSweepConfig drives a message-length sweep at a fixed destination
// count — the "messages of various sizes" measurement of Section 5.2.
type SizeSweepConfig struct {
	Dim        int
	Dests      int // fixed destination count
	Trials     int
	Seed       int64
	Sizes      []int // message lengths; defaults to powers of two 64..16384
	Params     ncube.Params
	Stat       DelayStat
	Algorithms []core.Algorithm
	Workers    int // concurrent sizes; 0 = GOMAXPROCS, 1 = serial
	// Metrics, when non-nil, aggregates sweep-wide observability (see
	// DelayConfig.Metrics).
	Metrics *metrics.Registry
}

func (c *SizeSweepConfig) setDefaults() {
	if c.Trials == 0 {
		c.Trials = 20
	}
	if len(c.Sizes) == 0 {
		for s := 64; s <= 16384; s *= 2 {
			c.Sizes = append(c.Sizes, s)
		}
	}
	if c.Params == (ncube.Params{}) {
		c.Params = ncube.NCube2(core.AllPort)
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = []core.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort}
	}
}

// SizeSweep measures delays as a function of message length at a fixed
// destination count, reported in microseconds. The destination sets (and
// hence the trees) are identical across sizes, isolating the pipelining
// term; each size rebuilds them in its worker's workspace.
func SizeSweep(cfg SizeSweepConfig) *stats.Table {
	cfg.setDefaults()
	cube := topology.New(cfg.Dim, topology.HighToLow)
	cols := make([]string, len(cfg.Algorithms))
	for i, a := range cfg.Algorithms {
		cols[i] = a.String()
	}
	tb := stats.NewTable(
		fmt.Sprintf("%s delay (us) vs message size, %d-cube, %d destinations, %s, %d sets",
			cfg.Stat, cfg.Dim, cfg.Dests, cfg.Params.Port, cfg.Trials),
		"bytes", cols...)
	// Draw the destination sets once so every size sees the same trees.
	gen := NewGenerator(cube, cfg.Seed)
	type instance struct {
		src   topology.NodeID
		dests []topology.NodeID
	}
	insts := make([]instance, cfg.Trials)
	for i := range insts {
		src := gen.Source()
		insts[i] = instance{src: src, dests: gen.Dests(src, cfg.Dests)}
	}
	ins := ncube.Instrumentation{Metrics: cfg.Metrics}
	mDelay := cfg.Metrics.Histogram("workload_delay_us")
	rows := make([][]float64, len(cfg.Sizes))
	forEachPoint(len(cfg.Sizes), cfg.Workers, func(w *worker, pi int) {
		size := cfg.Sizes[pi]
		cells := make([]float64, len(cfg.Algorithms))
		xs := make([]float64, 0, len(insts))
		for i, a := range cfg.Algorithms {
			xs = xs[:0]
			for _, in := range insts {
				r := w.run(cfg.Params, ins, w.ws.Build(cube, a, in.src, in.dests), size)
				avg, max := r.Stats(in.dests)
				v := avg
				if cfg.Stat == MaxDelay {
					v = max
				}
				us := float64(v) / float64(event.Microsecond)
				mDelay.Observe(int64(us))
				xs = append(xs, us)
			}
			cells[i] = stats.Mean(xs)
		}
		rows[pi] = cells
	})
	for pi, size := range cfg.Sizes {
		tb.Add(float64(size), rows[pi]...)
	}
	return tb
}

// Delay reproduces the delay experiments: for each destination count, the
// average over random destination sets of the chosen per-set delay
// statistic, reported in microseconds.
func Delay(cfg DelayConfig) *stats.Table {
	cfg.setDefaults()
	cube := topology.New(cfg.Dim, topology.HighToLow)
	cols := make([]string, len(cfg.Algorithms))
	for i, a := range cfg.Algorithms {
		cols[i] = a.String()
	}
	tb := stats.NewTable(
		fmt.Sprintf("%s delay (us), %d-cube, %d-byte messages, %s, %d random sets per point",
			cfg.Stat, cfg.Dim, cfg.Bytes, cfg.Params.Port, cfg.Trials),
		"destinations", cols...)
	ins := ncube.Instrumentation{Metrics: cfg.Metrics}
	mTrials := cfg.Metrics.Counter("workload_trials")
	mDelay := cfg.Metrics.Histogram("workload_delay_us")
	rows := make([][]float64, len(cfg.DestCounts))
	forEachPoint(len(cfg.DestCounts), cfg.Workers, func(w *worker, pi int) {
		m := cfg.DestCounts[pi]
		gen := w.generator(cube, cfg.Seed+int64(m))
		samples := newSamples(len(cfg.Algorithms), cfg.Trials)
		observe := func(i int, r ncube.Result, dests []topology.NodeID) {
			avg, max := r.Stats(dests)
			v := avg
			if cfg.Stat == MaxDelay {
				v = max
			}
			us := float64(v) / float64(event.Microsecond)
			mDelay.Observe(int64(us))
			samples[i] = append(samples[i], us)
		}
		if cfg.Params.Workers > 1 {
			// Batch path: the generator draws stay in the exact
			// sequential order (the RNG stream defines the experiment),
			// then the independent runs fan across the parallel
			// executor. Result folding follows tree order, so the table
			// is byte-identical to the sequential path at any worker
			// count.
			trees := make([]*core.Tree, 0, cfg.Trials*len(cfg.Algorithms))
			dsets := make([][]topology.NodeID, 0, cfg.Trials)
			for trial := 0; trial < cfg.Trials; trial++ {
				src := gen.Source()
				dests := gen.Dests(src, m)
				mTrials.Inc()
				dsets = append(dsets, dests)
				for _, a := range cfg.Algorithms {
					trees = append(trees, core.Build(cube, a, src, dests))
				}
			}
			results := ncube.RunParallelInstrumented(cfg.Params, trees, cfg.Bytes, ins)
			for trial := 0; trial < cfg.Trials; trial++ {
				for i := range cfg.Algorithms {
					observe(i, results[trial*len(cfg.Algorithms)+i], dsets[trial])
				}
			}
		} else {
			for trial := 0; trial < cfg.Trials; trial++ {
				src, dests := w.draw(gen, m)
				mTrials.Inc()
				for i, a := range cfg.Algorithms {
					observe(i, *w.run(cfg.Params, ins, w.ws.Build(cube, a, src, dests), cfg.Bytes), dests)
				}
			}
		}
		cells := make([]float64, len(samples))
		for i, xs := range samples {
			cells[i] = stats.Mean(xs)
		}
		rows[pi] = cells
	})
	for pi, m := range cfg.DestCounts {
		tb.Add(float64(m), rows[pi]...)
	}
	return tb
}
